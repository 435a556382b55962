// Package simnet provides the network substrate the executors are written
// against. The paper's experiments ran over Infiniband (Midway, 0.07 ms RTT)
// and a Cray 3D torus (Blue Waters, 0.04 ms RTT); we cannot provision those,
// so executors take a Transport and run over either real TCP (stdlib net,
// loopback — used to validate correctness and measure genuine overheads) or
// an in-memory simulated network with configurable round-trip latency that
// stands in for the testbed interconnects.
//
// An in-memory connection is a byte stream each way, like TCP's: a Write
// appends to a reused buffer, a Read takes every readable byte across write
// boundaries (a byte is readable once its write's delay has passed), and a
// writer parks while 1 MiB (maxUnread) waits unread.
package simnet

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Transport abstracts connection establishment so an executor neither knows
// nor cares whether it is running over TCP or the in-memory fabric.
type Transport interface {
	// Listen binds a listener at addr.
	Listen(addr string) (net.Listener, error)
	// Dial connects to addr.
	Dial(addr string) (net.Conn, error)
}

// TCP is the real-network transport backed by the standard library.
type TCP struct{}

// Listen implements Transport. An addr of "127.0.0.1:0" picks a free port;
// callers read the chosen address back from the listener.
func (TCP) Listen(addr string) (net.Listener, error) { return net.Listen("tcp", addr) }

// Dial implements Transport.
func (TCP) Dial(addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, 10*time.Second)
}

// Network is an in-memory Transport. Each connection applies a one-way
// delay of RTT/2 to every write, modeling the interconnect.
type Network struct {
	// RTT is the simulated round-trip time between any two endpoints.
	RTT time.Duration

	mu        sync.Mutex
	listeners map[string]*listener
	seq       int64
}

// NewNetwork returns an in-memory network with the given RTT.
func NewNetwork(rtt time.Duration) *Network {
	return &Network{RTT: rtt, listeners: make(map[string]*listener)}
}

// Midway returns a network modeling the Midway cluster interconnect (0.07 ms
// average RTT, §5).
func Midway() *Network { return NewNetwork(70 * time.Microsecond) }

// BlueWaters returns a network modeling the Blue Waters 3D torus (0.04 ms
// average RTT, §5).
func BlueWaters() *Network { return NewNetwork(40 * time.Microsecond) }

// ErrAddrInUse is returned by Listen when the address is taken.
var ErrAddrInUse = errors.New("simnet: address already in use")

// ErrConnRefused is returned by Dial when nothing listens at the address.
var ErrConnRefused = errors.New("simnet: connection refused")

// Listen implements Transport.
func (n *Network) Listen(addr string) (net.Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if addr == "" || addr[len(addr)-1] == ':' || addr == ":0" {
		// Auto-assign, mirroring ":0" TCP semantics.
		n.seq++
		addr = fmt.Sprintf("sim-%d", n.seq)
	}
	if _, exists := n.listeners[addr]; exists {
		return nil, fmt.Errorf("%w: %s", ErrAddrInUse, addr)
	}
	l := &listener{
		net:    n,
		addr:   addr,
		accept: make(chan net.Conn, 128),
		done:   make(chan struct{}),
	}
	n.listeners[addr] = l
	return l, nil
}

// Dial implements Transport.
func (n *Network) Dial(addr string) (net.Conn, error) {
	n.mu.Lock()
	l, ok := n.listeners[addr]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrConnRefused, addr)
	}
	delay := n.RTT / 2
	client, server := newPair(addr, delay)
	select {
	case l.accept <- server:
		// The listener may close concurrently, orphaning the queued conn;
		// fail the dial rather than leave a half-open connection whose
		// peer will never read.
		select {
		case <-l.done:
			_ = client.Close()
			_ = server.Close()
			return nil, fmt.Errorf("%w: %s (listener closed)", ErrConnRefused, addr)
		default:
			return client, nil
		}
	case <-l.done:
		return nil, fmt.Errorf("%w: %s (listener closed)", ErrConnRefused, addr)
	}
}

func (n *Network) remove(addr string) {
	n.mu.Lock()
	delete(n.listeners, addr)
	n.mu.Unlock()
}

type listener struct {
	net    *Network
	addr   string
	accept chan net.Conn
	done   chan struct{}
	once   sync.Once
}

// Accept implements net.Listener.
func (l *listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Close implements net.Listener.
func (l *listener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.net.remove(l.addr)
		// Close connections that were queued but never accepted, so their
		// dialers observe EOF instead of hanging.
		for {
			select {
			case c := <-l.accept:
				_ = c.Close()
			default:
				return
			}
		}
	})
	return nil
}

// Addr implements net.Listener.
func (l *listener) Addr() net.Addr { return simAddr(l.addr) }

type simAddr string

func (a simAddr) Network() string { return "sim" }
func (a simAddr) String() string  { return string(a) }

const (
	maxUnread  = 1 << 20  // a Write past this many unread bytes parks, unless none are unread
	keepBuffer = 64 << 10 // a drained pipe releases a buffer that grew past this
)

// mark is a delayed write: the bytes up to stream offset end are readable from at.
type mark struct {
	end int64
	at  time.Time
}

// conn is one endpoint of an in-memory connection. The fields from mu on are
// its inbound pipe: what the peer wrote and c has not read yet.
type conn struct {
	local, remote simAddr
	delay         time.Duration
	peer          *conn

	closed    chan struct{}
	closeOnce sync.Once

	mu           sync.Mutex
	buf          []byte // the unread bytes are buf[off:]
	off          int
	written      int64 // stream offsets: bytes written, read, and readable
	read, vis    int64
	marks        []mark // delayed writes not yet readable, oldest first from mhead
	mhead        int
	readDeadline time.Time
	readable     chan struct{} // 1-buffered: the peer wrote
	writable     chan struct{} // 1-buffered: c read, making room for a parked writer
}

func newPair(addr string, delay time.Duration) (client, server *conn) {
	client = newConn("client", simAddr(addr), delay)
	server = newConn(simAddr(addr), "client", delay)
	client.peer, server.peer = server, client
	return client, server
}

func newConn(local, remote simAddr, delay time.Duration) *conn {
	return &conn{
		local: local, remote: remote, delay: delay,
		closed:   make(chan struct{}),
		readable: make(chan struct{}, 1),
		writable: make(chan struct{}, 1),
	}
}

// signal wakes whoever waits on ch, or leaves the wake-up for the next one.
func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

func isClosed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// Write implements net.Conn. The bytes become readable at the peer after the
// one-way delay. While the peer holds maxUnread bytes unread, Write parks
// until it reads; once either end is closed it fails with io.ErrClosedPipe.
func (c *conn) Write(b []byte) (int, error) {
	p := c.peer
	for !isClosed(c.closed) && !isClosed(p.closed) {
		p.mu.Lock()
		if unread := p.written - p.read; unread == 0 || unread+int64(len(b)) <= maxUnread {
			p.push(b)
			p.mu.Unlock()
			signal(p.readable)
			return len(b), nil
		}
		p.mu.Unlock()
		select {
		case <-p.writable:
		case <-c.closed:
		case <-p.closed:
		}
	}
	return 0, io.ErrClosedPipe
}

// push appends one write to c's inbound pipe (c.mu held). Read bytes and
// marks are slid out before the arrays would grow, so they grow only with
// what is unread.
func (c *conn) push(b []byte) {
	if c.off > 0 && len(c.buf)+len(b) > cap(c.buf) {
		c.buf = c.buf[:copy(c.buf, c.buf[c.off:])]
		c.off = 0
	}
	c.buf = append(c.buf, b...)
	c.written += int64(len(b))
	if c.delay <= 0 {
		c.vis = c.written
		return
	}
	if c.mhead > 0 && len(c.marks) == cap(c.marks) {
		c.marks = c.marks[:copy(c.marks, c.marks[c.mhead:])]
		c.mhead = 0
	}
	c.marks = append(c.marks, mark{end: c.written, at: time.Now().Add(c.delay)})
}

// Read implements net.Conn. It returns every byte already readable, up to
// len(b), across write boundaries, and waits for the first one until the
// read deadline. After the peer closes, what it wrote is still read, then
// io.EOF.
func (c *conn) Read(b []byte) (int, error) {
	c.mu.Lock()
	dl := c.readDeadline
	c.mu.Unlock()
	var deadline <-chan time.Time
	if !dl.IsZero() {
		d := time.Until(dl)
		if d <= 0 {
			return 0, timeoutError{}
		}
		timer := time.NewTimer(d)
		defer timer.Stop()
		deadline = timer.C
	}
	for {
		// A peer seen closed before the pipe is read has written its last.
		peerGone := isClosed(c.peer.closed)
		c.mu.Lock()
		n := c.take(b)
		var at time.Time // when the oldest write not yet readable becomes so
		if c.mhead < len(c.marks) {
			at = c.marks[c.mhead].at
		}
		c.mu.Unlock()
		switch {
		case n > 0 || len(b) == 0:
			signal(c.writable)
			return n, nil
		case !at.IsZero():
			time.Sleep(time.Until(at)) // the wire delay
			continue
		case peerGone:
			return 0, io.EOF
		}
		select {
		case <-c.readable:
		case <-c.peer.closed:
		case <-c.closed:
			return 0, io.EOF
		case <-deadline:
			return 0, timeoutError{}
		}
	}
}

// take copies readable bytes into b (c.mu held), first making readable every
// delayed write whose time has come.
func (c *conn) take(b []byte) int {
	if c.mhead < len(c.marks) {
		now := time.Now()
		for ; c.mhead < len(c.marks) && !c.marks[c.mhead].at.After(now); c.mhead++ {
			c.vis = c.marks[c.mhead].end
		}
		if c.mhead == len(c.marks) {
			c.marks, c.mhead = c.marks[:0], 0
		}
	}
	n := copy(b, c.buf[c.off:c.off+int(c.vis-c.read)])
	c.off += n
	c.read += int64(n)
	if c.read == c.written {
		c.buf, c.off = c.buf[:0], 0
		if cap(c.buf) > keepBuffer {
			c.buf = nil
		}
	}
	return n
}

// Close implements net.Conn. Waiting reads and parked writes on both ends
// unblock.
func (c *conn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return nil
}

// LocalAddr implements net.Conn.
func (c *conn) LocalAddr() net.Addr { return c.local }

// RemoteAddr implements net.Conn.
func (c *conn) RemoteAddr() net.Addr { return c.remote }

// SetDeadline implements net.Conn for reads only: a Write waits only while
// the peer holds maxUnread bytes unread, and then until it reads or either
// end closes.
func (c *conn) SetDeadline(t time.Time) error { return c.SetReadDeadline(t) }

// SetReadDeadline implements net.Conn.
func (c *conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadline = t
	c.mu.Unlock()
	return nil
}

// SetWriteDeadline implements net.Conn as a no-op (see SetDeadline).
func (c *conn) SetWriteDeadline(time.Time) error { return nil }

type timeoutError struct{}

func (timeoutError) Error() string   { return "simnet: i/o timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }
