// Package ftp implements a minimal FTP (RFC 959) server and client — enough
// of the protocol (USER/PASS, TYPE I, PASV, RETR, STOR, QUIT) for the
// Parsl data manager's ftp:// staging scheme (§4.5). The paper's deployments
// pull inputs from anonymous FTP mirrors; running the protocol for real over
// loopback keeps the staging code path honest instead of stubbing it.
package ftp

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Server is an anonymous read/write FTP server rooted at a directory.
type Server struct {
	root string
	l    net.Listener
	wg   sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

// NewServer starts an FTP server on addr ("127.0.0.1:0" for an ephemeral
// port) serving files under root.
func NewServer(addr, root string) (*Server, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ftp: listen: %w", err)
	}
	s := &Server{root: abs, l: l}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the control-connection address.
func (s *Server) Addr() string { return s.l.Addr().String() }

// Close stops the server.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	err := s.l.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.l.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serve(conn)
		}()
	}
}

// session holds per-control-connection state.
type session struct {
	srv      *Server
	ctrl     net.Conn
	r        *bufio.Reader
	user     string
	loggedIn bool
	dataL    net.Listener // PASV listener awaiting one data connection
}

func (s *Server) serve(conn net.Conn) {
	defer conn.Close()
	sess := &session{srv: s, ctrl: conn, r: bufio.NewReader(conn)}
	sess.reply(220, "parsl-sim FTP ready")
	for {
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Minute))
		line, err := sess.r.ReadString('\n')
		if err != nil {
			return
		}
		line = strings.TrimRight(line, "\r\n")
		verb, arg := line, ""
		if i := strings.IndexByte(line, ' '); i >= 0 {
			verb, arg = line[:i], line[i+1:]
		}
		if !sess.dispatch(strings.ToUpper(verb), arg) {
			return
		}
	}
}

func (ss *session) reply(code int, msg string) {
	fmt.Fprintf(ss.ctrl, "%d %s\r\n", code, msg)
}

// dispatch handles one command; returning false ends the session.
func (ss *session) dispatch(verb, arg string) bool {
	switch verb {
	case "USER":
		ss.user = arg
		ss.reply(331, "password required")
	case "PASS":
		if ss.user == "" {
			ss.reply(503, "USER first")
			return true
		}
		ss.loggedIn = true
		ss.reply(230, "logged in")
	case "TYPE":
		ss.reply(200, "type set")
	case "PASV":
		ss.cmdPasv()
	case "RETR":
		ss.cmdRetr(arg)
	case "STOR":
		ss.cmdStor(arg)
	case "QUIT":
		ss.reply(221, "bye")
		return false
	default:
		ss.reply(502, "command not implemented")
	}
	return true
}

// resolve maps an FTP path into the server root, refusing escapes.
func (ss *session) resolve(p string) (string, error) {
	clean := path.Clean("/" + p)
	full := filepath.Join(ss.srv.root, filepath.FromSlash(clean))
	if !strings.HasPrefix(full, ss.srv.root) {
		return "", errors.New("path escapes root")
	}
	return full, nil
}

func (ss *session) cmdPasv() {
	if !ss.loggedIn {
		ss.reply(530, "not logged in")
		return
	}
	if ss.dataL != nil {
		_ = ss.dataL.Close()
	}
	host, _, err := net.SplitHostPort(ss.ctrl.LocalAddr().String())
	if err != nil {
		ss.reply(425, "cannot open data port")
		return
	}
	l, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
	if err != nil {
		ss.reply(425, "cannot open data port")
		return
	}
	ss.dataL = l
	_, portStr, _ := net.SplitHostPort(l.Addr().String())
	port, _ := strconv.Atoi(portStr)
	hostParts := strings.ReplaceAll(host, ".", ",")
	ss.reply(227, fmt.Sprintf("Entering Passive Mode (%s,%d,%d)", hostParts, port/256, port%256))
}

func (ss *session) openData() (net.Conn, error) {
	if ss.dataL == nil {
		return nil, errors.New("no PASV listener")
	}
	defer func() { _ = ss.dataL.Close(); ss.dataL = nil }()
	type result struct {
		c   net.Conn
		err error
	}
	ch := make(chan result, 1)
	go func() {
		c, err := ss.dataL.Accept()
		ch <- result{c, err}
	}()
	select {
	case r := <-ch:
		return r.c, r.err
	case <-time.After(10 * time.Second):
		return nil, errors.New("data connection timeout")
	}
}

func (ss *session) cmdRetr(arg string) {
	if !ss.loggedIn {
		ss.reply(530, "not logged in")
		return
	}
	full, err := ss.resolve(arg)
	if err != nil {
		ss.reply(550, err.Error())
		return
	}
	f, err := os.Open(full)
	if err != nil {
		ss.reply(550, "file unavailable")
		return
	}
	defer f.Close()
	ss.reply(150, "opening data connection")
	data, err := ss.openData()
	if err != nil {
		ss.reply(425, "cannot open data connection")
		return
	}
	_, cErr := io.Copy(data, f)
	_ = data.Close()
	if cErr != nil {
		ss.reply(426, "transfer aborted")
		return
	}
	ss.reply(226, "transfer complete")
}

func (ss *session) cmdStor(arg string) {
	if !ss.loggedIn {
		ss.reply(530, "not logged in")
		return
	}
	full, err := ss.resolve(arg)
	if err != nil {
		ss.reply(550, err.Error())
		return
	}
	if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
		ss.reply(550, "cannot create directory")
		return
	}
	f, err := os.Create(full)
	if err != nil {
		ss.reply(550, "cannot create file")
		return
	}
	ss.reply(150, "opening data connection")
	data, err := ss.openData()
	if err != nil {
		_ = f.Close()
		ss.reply(425, "cannot open data connection")
		return
	}
	_, cErr := io.Copy(f, data)
	_ = data.Close()
	if err := f.Close(); err != nil || cErr != nil {
		ss.reply(426, "transfer aborted")
		return
	}
	ss.reply(226, "transfer complete")
}

// Client is a minimal FTP client for the data manager.
type Client struct {
	ctrl net.Conn
	r    *bufio.Reader
}

// Dial connects and logs in anonymously.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("ftp: dial: %w", err)
	}
	c := &Client{ctrl: conn, r: bufio.NewReader(conn)}
	if _, _, err := c.readReply(); err != nil {
		_ = conn.Close()
		return nil, err
	}
	if err := c.expect("USER anonymous", 331); err != nil {
		_ = conn.Close()
		return nil, err
	}
	if err := c.expect("PASS parsl@", 230); err != nil {
		_ = conn.Close()
		return nil, err
	}
	if err := c.expect("TYPE I", 200); err != nil {
		_ = conn.Close()
		return nil, err
	}
	return c, nil
}

// readReply reads one reply: its code and the text of its last line. A reply
// whose first line is "ddd-" runs on until a line that starts "ddd " (RFC 959
// §4.2), as the banners of vsftpd and ProFTPD do.
func (c *Client) readReply() (int, string, error) {
	line, err := c.readLine()
	if err != nil {
		return 0, "", err
	}
	if len(line) < 4 || (line[3] != ' ' && line[3] != '-') {
		return 0, "", fmt.Errorf("ftp: malformed reply %q", line)
	}
	code, err := strconv.Atoi(line[:3])
	if err != nil {
		return 0, "", fmt.Errorf("ftp: malformed code %q", line)
	}
	for end := line[:3] + " "; !strings.HasPrefix(line, end); {
		if line, err = c.readLine(); err != nil {
			return 0, "", err
		}
	}
	return code, line[4:], nil
}

func (c *Client) readLine() (string, error) {
	line, err := c.r.ReadString('\n')
	if err != nil {
		return "", fmt.Errorf("ftp: read reply: %w", err)
	}
	return strings.TrimRight(line, "\r\n"), nil
}

func (c *Client) cmd(line string) (int, string, error) {
	if _, err := fmt.Fprintf(c.ctrl, "%s\r\n", line); err != nil {
		return 0, "", err
	}
	return c.readReply()
}

func (c *Client) expect(line string, want int) error {
	code, msg, err := c.cmd(line)
	if err != nil {
		return err
	}
	if code != want {
		return fmt.Errorf("ftp: %s: %d %s", strings.Fields(line)[0], code, msg)
	}
	return nil
}

// pasv negotiates a passive data connection. It dials the advertised port on
// the host the control connection already reached, never the advertised
// host: a server behind NAT names an address the client cannot reach, and a
// hostile one could point the client at any host and port.
func (c *Client) pasv() (net.Conn, error) {
	code, msg, err := c.cmd("PASV")
	if err != nil {
		return nil, err
	}
	if code != 227 {
		return nil, fmt.Errorf("ftp: PASV: %d %s", code, msg)
	}
	open := strings.IndexByte(msg, '(')
	closeP := strings.IndexByte(msg, ')')
	if open < 0 || closeP <= open {
		return nil, fmt.Errorf("ftp: malformed PASV reply %q", msg)
	}
	parts := strings.Split(msg[open+1:closeP], ",")
	if len(parts) != 6 {
		return nil, fmt.Errorf("ftp: malformed PASV host %q", msg)
	}
	hi, err1 := strconv.Atoi(parts[4])
	lo, err2 := strconv.Atoi(parts[5])
	port := hi*256 + lo
	if err1 != nil || err2 != nil || hi < 0 || hi > 255 || lo < 0 || lo > 255 || port == 0 {
		return nil, fmt.Errorf("ftp: malformed PASV port %q", msg)
	}
	host, _, err := net.SplitHostPort(c.ctrl.RemoteAddr().String())
	if err != nil {
		return nil, fmt.Errorf("ftp: PASV: %w", err)
	}
	return net.DialTimeout("tcp", net.JoinHostPort(host, strconv.Itoa(port)), 10*time.Second)
}

// Retr downloads a file.
func (c *Client) Retr(remotePath string) ([]byte, error) {
	data, err := c.pasv()
	if err != nil {
		return nil, err
	}
	code, msg, err := c.cmd("RETR " + remotePath)
	if err != nil {
		_ = data.Close()
		return nil, err
	}
	if code != 150 {
		_ = data.Close()
		return nil, fmt.Errorf("ftp: RETR: %d %s", code, msg)
	}
	buf, rErr := io.ReadAll(data)
	_ = data.Close()
	code, msg, err = c.readReply()
	if err != nil {
		return nil, err
	}
	if code != 226 || rErr != nil {
		return nil, fmt.Errorf("ftp: RETR incomplete: %d %s", code, msg)
	}
	return buf, nil
}

// Stor uploads a file.
func (c *Client) Stor(remotePath string, content []byte) error {
	data, err := c.pasv()
	if err != nil {
		return err
	}
	code, msg, err := c.cmd("STOR " + remotePath)
	if err != nil {
		_ = data.Close()
		return err
	}
	if code != 150 {
		_ = data.Close()
		return fmt.Errorf("ftp: STOR: %d %s", code, msg)
	}
	_, wErr := data.Write(content)
	_ = data.Close()
	code, msg, err = c.readReply()
	if err != nil {
		return err
	}
	if code != 226 || wErr != nil {
		return fmt.Errorf("ftp: STOR incomplete: %d %s", code, msg)
	}
	return nil
}

// Quit logs out and closes the control connection.
func (c *Client) Quit() error {
	_, _, _ = c.cmd("QUIT")
	return c.ctrl.Close()
}
