package ftp

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func newServer(t *testing.T) (*Server, string) {
	t.Helper()
	root := t.TempDir()
	s, err := NewServer("127.0.0.1:0", root)
	if err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s, root
}

func TestRetrRoundTrip(t *testing.T) {
	s, root := newServer(t)
	want := []byte("sequence data: ACGTACGT")
	if err := os.WriteFile(filepath.Join(root, "reads.fq"), want, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Quit()
	got, err := c.Retr("reads.fq")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %q", got)
	}
}

func TestRetrMissingFile(t *testing.T) {
	s, _ := newServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Quit()
	if _, err := c.Retr("absent.bin"); err == nil {
		t.Fatal("missing file retrieved")
	}
	// Connection still usable after a failed RETR.
	if err := os.WriteFile(filepath.Join(t.TempDir(), "x"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestStorThenRetr(t *testing.T) {
	s, root := newServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Quit()
	payload := bytes.Repeat([]byte("output-block "), 1000)
	if err := c.Stor("results/out.dat", payload); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(filepath.Join(root, "results", "out.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, payload) {
		t.Fatal("stored bytes differ")
	}
	got, err := c.Retr("results/out.dat")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("retr after stor: %v", err)
	}
}

func TestPathEscapeRejected(t *testing.T) {
	s, root := newServer(t)
	// Plant a file outside the root.
	outside := filepath.Join(filepath.Dir(root), "secret.txt")
	if err := os.WriteFile(outside, []byte("secret"), 0o644); err != nil {
		t.Fatal(err)
	}
	defer os.Remove(outside)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Quit()
	got, err := c.Retr("../secret.txt")
	if err == nil && strings.Contains(string(got), "secret") {
		t.Fatal("path traversal leaked a file outside the root")
	}
}

func TestLargeTransfer(t *testing.T) {
	s, root := newServer(t)
	want := make([]byte, 4<<20) // 4 MiB
	for i := range want {
		want[i] = byte(i * 31)
	}
	if err := os.WriteFile(filepath.Join(root, "big.bin"), want, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Quit()
	got, err := c.Retr("big.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("large payload corrupted")
	}
}

func TestMultipleTransfersOneSession(t *testing.T) {
	s, root := newServer(t)
	for i := 0; i < 5; i++ {
		name := filepath.Join(root, "f"+string(rune('0'+i)))
		if err := os.WriteFile(name, []byte{byte(i)}, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Quit()
	for i := 0; i < 5; i++ {
		got, err := c.Retr("f" + string(rune('0'+i)))
		if err != nil || len(got) != 1 || got[0] != byte(i) {
			t.Fatalf("transfer %d: %v %v", i, got, err)
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	s, root := newServer(t)
	if err := os.WriteFile(filepath.Join(root, "shared"), []byte("data"), 0o644); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(s.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Quit()
			got, err := c.Retr("shared")
			if err != nil || string(got) != "data" {
				t.Errorf("retr: %q %v", got, err)
			}
		}()
	}
	wg.Wait()
}

func TestServerCloseIdempotent(t *testing.T) {
	s, _ := newServer(t)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Dial(s.Addr()); err == nil {
		t.Fatal("dial to closed server succeeded")
	}
}

// scriptedServer accepts one control connection on loopback, sends greeting
// and hands each command line to answer, which writes the reply. It stands in
// for servers whose replies the local Server never sends.
func scriptedServer(t *testing.T, greeting string, answer func(conn net.Conn, verb, arg string)) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	t.Cleanup(func() { _ = l.Close() })
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		_, _ = io.WriteString(conn, greeting)
		r := bufio.NewReader(conn)
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				return
			}
			verb, arg, _ := strings.Cut(strings.TrimRight(line, "\r\n"), " ")
			answer(conn, verb, arg)
		}
	}()
	return l.Addr().String()
}

// answerLogin replies to the commands Dial and Quit send, and reports
// whether verb was one of them.
func answerLogin(conn net.Conn, verb string) bool {
	reply := map[string]string{
		"USER": "331 password required",
		"PASS": "230-Welcome.\r\n  Continuation lines may start with anything.\r\n230 logged in",
		"TYPE": "200 type set",
		"QUIT": "221 bye",
	}[verb]
	if reply == "" {
		return false
	}
	_, _ = io.WriteString(conn, reply+"\r\n")
	return true
}

// TestDialMultiLineReplies: a reply whose first line is "ddd-" runs until a
// line starting "ddd " (RFC 959 §4.2); vsftpd and ProFTPD greet that way.
func TestDialMultiLineReplies(t *testing.T) {
	addr := scriptedServer(t, "220-Welcome to the scripted server\r\n220 ready\r\n", func(conn net.Conn, verb, _ string) {
		if !answerLogin(conn, verb) {
			_, _ = io.WriteString(conn, "502 command not implemented\r\n")
		}
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Quit(); err != nil {
		t.Fatal(err)
	}
}

// TestPasvDialsControlHost: the data connection goes to the host the control
// connection reached, whatever host the PASV reply names (192.0.2.1 is
// TEST-NET-1, which nothing answers).
func TestPasvDialsControlHost(t *testing.T) {
	dataL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	defer dataL.Close()
	port := dataL.Addr().(*net.TCPAddr).Port
	addr := scriptedServer(t, "220 ready\r\n", func(conn net.Conn, verb, _ string) {
		if answerLogin(conn, verb) {
			return
		}
		switch verb {
		case "PASV":
			fmt.Fprintf(conn, "227 Entering Passive Mode (192,0,2,1,%d,%d)\r\n", port/256, port%256)
		case "RETR":
			_, _ = io.WriteString(conn, "150 opening data connection\r\n")
			data, err := dataL.Accept()
			if err != nil {
				return
			}
			_, _ = io.WriteString(data, "payload")
			_ = data.Close()
			_, _ = io.WriteString(conn, "226 transfer complete\r\n")
		}
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Quit()
	got, err := c.Retr("f")
	if err != nil || string(got) != "payload" {
		t.Fatalf("Retr = %q, %v", got, err)
	}
}

// TestPasvRejectsBadPort: a PASV reply naming a port outside 1–65535 is
// refused before anything is dialled.
func TestPasvRejectsBadPort(t *testing.T) {
	replies := []string{"(127,0,0,1,0,0)", "(127,0,0,1,256,1)", "(127,0,0,1,-1,80)", "(127,0,0,1,1,256)"}
	var next int
	addr := scriptedServer(t, "220 ready\r\n", func(conn net.Conn, verb, _ string) {
		if !answerLogin(conn, verb) && verb == "PASV" {
			fmt.Fprintf(conn, "227 Entering Passive Mode %s\r\n", replies[next%len(replies)])
			next++
		}
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Quit()
	for _, r := range replies {
		if data, err := c.pasv(); err == nil || !strings.Contains(err.Error(), "malformed PASV port") {
			if data != nil {
				_ = data.Close()
			}
			t.Errorf("PASV %s: err = %v, want a malformed-port error", r, err)
		}
	}
}
