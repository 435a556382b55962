// Package mq is the message-fabric substrate standing in for ZeroMQ (§4.3:
// "the interchange is a hub to which the executor client and registered
// managers connect using ZeroMQ queues"). It provides multipart framed
// messages over any net.Conn, a Dealer (identified client) and a Router
// (identity-routing hub) — the two socket patterns Parsl's executors use.
//
// Storage. Recv returns a message in fresh memory the caller owns. RecvFrame
// returns, and every Router delivery carries, a Frame: the message in storage
// its connection reuses, as a ZeroMQ message is a buffer freed on its last
// reference. The receive hands the Frame over holding one reference, the
// receiver's. A holder that keeps the message, or any part of it, past the
// receiver's Release takes a reference of its own with Hold and releases it
// when it is done; the receiver releases once it has handed the message on.
// At the last Release the part list and the body go back to the connection,
// whose next receives parse into them, so nobody may read the message after
// releasing. A Frame never released is garbage, as a Recv message is, and one
// released more often than held panics.
package mq

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/simnet"
)

// MaxPartSize bounds a single frame part; larger parts indicate corruption
// or a protocol error rather than a legitimate task payload.
const MaxPartSize = 64 << 20

// MaxParts bounds the number of parts in one message.
const MaxParts = 1 << 16

// ErrClosed is returned by operations on a closed socket.
var ErrClosed = errors.New("mq: socket closed")

// Message is a multipart message, mirroring ZeroMQ frames.
type Message [][]byte

// writeFrame writes one multipart message: u32 part count, then u32
// length-prefixed parts.
func writeFrame(w io.Writer, m Message) error { return new(frameWriter).write(w, m) }

// frameWriter is the scratch a frame is sent from: its count and length
// fields, and the buffers handed to one net.Buffers.WriteTo — one writev on
// a TCP conn, one Write per buffer on any other writer.
type frameWriter struct {
	fields []byte
	bufs   [][]byte
	vec    net.Buffers // bufs, as WriteTo consumes it; a field, so the call does not allocate
}

// write checks the whole message before it writes a byte of it, so a refused
// message leaves the stream in step, and keeps no part referenced after.
func (f *frameWriter) write(w io.Writer, m Message) error {
	if len(m) > MaxParts {
		return fmt.Errorf("mq: %d parts exceeds limit", len(m))
	}
	for _, part := range m {
		if len(part) > MaxPartSize {
			return fmt.Errorf("mq: part of %d bytes exceeds limit", len(part))
		}
	}
	n := 4 * (1 + len(m))
	f.fields = slices.Grow(f.fields[:0], n)[:n]
	binary.BigEndian.PutUint32(f.fields, uint32(len(m)))
	f.bufs = append(f.bufs[:0], f.fields[:4])
	for i, part := range m {
		field := f.fields[4*(i+1) : 4*(i+2)]
		binary.BigEndian.PutUint32(field, uint32(len(part)))
		f.bufs = append(f.bufs, field, part)
	}
	f.vec = f.bufs
	_, err := f.vec.WriteTo(w)
	clear(f.bufs)
	return err
}

// The first allocation for a frame's part list and for each part is capped:
// a header only claims a size, and the bytes behind the claim arrive (or do
// not) afterwards, so anything past the cap grows as they are read.
const (
	firstParts = 64
	firstPart  = 64 << 10
)

// readFrame reads one multipart message.
func readFrame(r io.Reader) (Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	nparts := binary.BigEndian.Uint32(hdr[:])
	if nparts > MaxParts {
		return nil, fmt.Errorf("mq: frame claims %d parts", nparts)
	}
	m := make(Message, 0, min(nparts, firstParts))
	for i := uint32(0); i < nparts; i++ {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil, err
		}
		n := int(binary.BigEndian.Uint32(hdr[:]))
		if n > MaxPartSize {
			return nil, fmt.Errorf("mq: part claims %d bytes", n)
		}
		part, err := readPart(r, n)
		if err != nil {
			return nil, err
		}
		m = append(m, part)
	}
	return m, nil
}

// readPart reads an n-byte part, with capacity n. A part up to firstPart
// bytes is one allocation; a longer one at most doubles what has arrived, so
// a claim the stream does not back costs a bounded multiple of the bytes
// actually read.
func readPart(r io.Reader, n int) ([]byte, error) {
	part := make([]byte, 0, min(n, firstPart))
	for len(part) < n {
		if len(part) == cap(part) {
			part = slices.Grow(part, min(n-len(part), len(part)))
		}
		k, err := io.ReadFull(r, part[len(part):min(n, cap(part))])
		part = part[:len(part)+k]
		if err != nil {
			return nil, err
		}
	}
	return part[:n:n], nil
}

// recvBuffer is a Conn's read buffer, the largest frame a receive parses in
// place: htex task batches reach ≈5 KiB; a rarer, larger heartbeat takes
// readFrame.
const recvBuffer = 8 << 10

// freeFrames is how many released Frames a Conn keeps for its next receives.
// A Frame holds a body of at most recvBuffer bytes; a release finding the list
// full leaves its Frame to the garbage collector.
const freeFrames = 8

// frameStack is a Conn's released Frames. It is last in, first out: a
// receive parses into the storage released last, the likeliest to be cached.
type frameStack struct {
	mu    sync.Mutex
	n     int
	stack [freeFrames]*Frame
}

func (fs *frameStack) push(f *Frame) {
	fs.mu.Lock()
	if fs.n < len(fs.stack) {
		fs.stack[fs.n] = f
		fs.n++
	}
	fs.mu.Unlock()
}

func (fs *frameStack) pop() (f *Frame) {
	fs.mu.Lock()
	if fs.n > 0 {
		fs.n--
		f, fs.stack[fs.n] = fs.stack[fs.n], nil
	}
	fs.mu.Unlock()
	return f
}

// Conn is a framed connection with a serialized writer, safe for concurrent
// Send from multiple goroutines. Recv and RecvFrame must be called from one
// goroutine.
type Conn struct {
	raw net.Conn
	r   *bufio.Reader
	// free holds released Frames, which RecvFrame parses into.
	free frameStack

	wmu sync.Mutex
	w   frameWriter

	closeOnce sync.Once
	closeErr  error
}

// NewConn wraps a raw connection.
func NewConn(raw net.Conn) *Conn {
	return &Conn{raw: raw, r: bufio.NewReaderSize(raw, recvBuffer)}
}

// Send writes one multipart message.
func (c *Conn) Send(m Message) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.w.write(c.raw, m)
}

// Recv reads one multipart message. A frame that fits the read buffer is
// copied out into one allocation its parts share; any other frame, or one
// whose bytes stop short, goes to readFrame, which meets the same bytes and
// the same error from the connection.
func (c *Conn) Recv() (Message, error) {
	if m, _, ok := c.peekFrame(nil, nil); ok {
		return m, nil
	}
	return readFrame(c.r)
}

// Frame is a received message in storage its connection reuses once every
// holder has released it (see the package comment).
type Frame struct {
	Msg  Message
	refs atomic.Int32
	// home is the connection the storage goes back to; nil for a frame read
	// past the buffer, whose storage is the garbage collector's.
	home *Conn
	body []byte
	// parts is the part list of a frame of at most four parts, so a Frame
	// and its body are the receive's only allocations.
	parts [4][]byte
}

// RecvFrame reads one multipart message as Recv does, into a Frame holding
// one reference. A frame that fits the read buffer is parsed into storage a
// released Frame of this Conn gave back; one larger goes to readFrame.
func (c *Conn) RecvFrame() (*Frame, error) {
	f := c.free.pop()
	if f == nil {
		f = &Frame{home: c}
		f.Msg = f.parts[:0]
	}
	m, body, ok := c.peekFrame(f.Msg, f.body)
	if !ok {
		c.free.push(f)
		m, err := readFrame(c.r)
		if err != nil {
			return nil, err
		}
		f = &Frame{Msg: m}
		f.refs.Store(1)
		return f, nil
	}
	f.Msg, f.body = m, body
	f.refs.Store(1)
	return f, nil
}

// Hold takes a reference for a holder that keeps part of f's message past
// the receiver's Release, and returns what that holder releases: f, or nil
// when f's storage is not reused (a frame read past the buffer), where the
// parts the holder keeps keep themselves alive and holding f would pin the
// rest. The caller must hold a reference while it calls Hold; Hold of a nil
// Frame returns nil.
func (f *Frame) Hold() *Frame {
	if f == nil || f.home == nil {
		return nil
	}
	f.refs.Add(1)
	return f
}

// Release drops one reference; the last gives the storage back to the
// connection. Release of a nil Frame does nothing, and one past the last
// reference panics.
func (f *Frame) Release() {
	if f == nil {
		return
	}
	switch n := f.refs.Add(-1); {
	case n < 0:
		panic("mq: Frame released more often than held")
	case n == 0 && f.home != nil:
		f.home.free.push(f)
	}
}

// peekFrame returns the next frame if it fits the read buffer, consuming it,
// or false without consuming anything. It only waits for bytes the frame's
// headers claim. The message and its bytes are built in m's and body's
// storage when they are large enough, and the storage used is returned with
// the message. Each part's capacity is its length, so an append to one
// cannot overwrite the next.
func (c *Conn) peekFrame(m Message, body []byte) (Message, []byte, bool) {
	b, err := c.r.Peek(4)
	if err != nil {
		return nil, nil, false
	}
	// A Peek past the buffer's size fills it, with bytes the frame claims,
	// and fails: a frame too large is given up at its first header past it.
	nparts, end := binary.BigEndian.Uint32(b), 4
	for range nparts {
		if b, err = c.r.Peek(end + 4); err != nil {
			return nil, nil, false
		}
		n := binary.BigEndian.Uint32(b[end:])
		if n > uint32(c.r.Size()-end-4) {
			return nil, nil, false
		}
		end += 4 + int(n)
	}
	if b, err = c.r.Peek(end); err != nil {
		return nil, nil, false
	}
	m = resize(m, int(nparts))
	body = resize(body, end-4*(1+len(m)))
	rest := body
	for i, off := 0, 4; i < len(m); i++ {
		n := int(binary.BigEndian.Uint32(b[off:]))
		m[i], rest = rest[:n:n], rest[n:]
		copy(m[i], b[off+4:])
		off += 4 + n
	}
	_, _ = c.r.Discard(end)
	return m, body, true
}

// resize returns s with length n, in s's storage when it is large enough.
func resize[S ~[]E, E any](s S, n int) S {
	if cap(s) < n {
		return make(S, n)
	}
	return s[:n]
}

// Close closes the underlying connection.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() { c.closeErr = c.raw.Close() })
	return c.closeErr
}

// Dealer is an identified client socket: it dials a Router, announces its
// identity, and then exchanges messages. Parsl's managers and executor
// clients are dealers.
type Dealer struct {
	conn *Conn
}

// DialDealer connects to a router at addr over tr and performs the identity
// handshake.
func DialDealer(tr simnet.Transport, addr, identity string) (*Dealer, error) {
	if identity == "" {
		return nil, errors.New("mq: dealer requires a non-empty identity")
	}
	raw, err := tr.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("mq: dial %s: %w", addr, err)
	}
	c := NewConn(raw)
	if err := c.Send(Message{[]byte("HELLO"), []byte(identity)}); err != nil {
		_ = c.Close()
		return nil, fmt.Errorf("mq: handshake: %w", err)
	}
	return &Dealer{conn: c}, nil
}

// Send transmits a message to the router.
func (d *Dealer) Send(m Message) error { return d.conn.Send(m) }

// Recv blocks for the next message from the router.
func (d *Dealer) Recv() (Message, error) { return d.conn.Recv() }

// RecvFrame is Conn.RecvFrame on the connection to the router.
func (d *Dealer) RecvFrame() (*Frame, error) { return d.conn.RecvFrame() }

// Close tears down the connection.
func (d *Dealer) Close() error { return d.conn.Close() }

// Delivery is a message received by a Router, tagged with the sender. Msg is
// Frame.Msg, and Frame holds the receiver's reference (see the package
// comment); both are nil in the zero Delivery a closed Incoming yields.
type Delivery struct {
	From  string
	Msg   Message
	Frame *Frame
}

// PeerEvent notifies router users of peer arrival/departure, which the HTEX
// interchange turns into manager registration and loss detection.
type PeerEvent struct {
	ID     string
	Joined bool // false = disconnected
}

// Router is the hub socket: it accepts dealer connections, learns their
// identities from the handshake, and routes outbound messages by identity.
type Router struct {
	l        net.Listener
	incoming chan Delivery
	events   chan PeerEvent
	done     chan struct{} // closed by Close: a receive loop stops delivering
	mu       sync.Mutex
	peers    map[string]*Conn
	conns    map[*Conn]struct{} // every accepted connection, registered or not
	closed   bool
	wg       sync.WaitGroup // acceptLoop and every accepted connection's serveConn
}

// NewRouter starts a router listening on addr over tr.
func NewRouter(tr simnet.Transport, addr string) (*Router, error) {
	l, err := tr.Listen(addr)
	if err != nil {
		return nil, fmt.Errorf("mq: listen %s: %w", addr, err)
	}
	r := &Router{
		l:        l,
		incoming: make(chan Delivery, 4096),
		events:   make(chan PeerEvent, 1024),
		done:     make(chan struct{}),
		peers:    make(map[string]*Conn),
		conns:    make(map[*Conn]struct{}),
	}
	r.wg.Add(1)
	go r.acceptLoop()
	return r, nil
}

// Addr returns the bound address (useful with ":0" TCP listeners).
func (r *Router) Addr() string { return r.l.Addr().String() }

// acceptLoop tracks each connection from its accept, so that Close closes it
// and waits for its serveConn whether or not it has said HELLO yet.
func (r *Router) acceptLoop() {
	defer r.wg.Done()
	for {
		raw, err := r.l.Accept()
		if err != nil {
			return
		}
		c := NewConn(raw)
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			_ = c.Close()
			return
		}
		r.conns[c] = struct{}{}
		r.wg.Add(1) // under mu while not closed, so before Close's Wait
		r.mu.Unlock()
		go r.serveConn(c)
	}
}

// serveConn registers c under the identity its HELLO names, then delivers
// its messages until it closes or the router does.
func (r *Router) serveConn(c *Conn) {
	defer r.wg.Done()
	id, joined := r.register(c)
	if joined {
		r.notify(PeerEvent{ID: id, Joined: true})
	loop:
		for {
			f, err := c.RecvFrame()
			if err != nil {
				break
			}
			select {
			case r.incoming <- Delivery{From: id, Msg: f.Msg, Frame: f}:
			case <-r.done:
				break loop
			}
		}
	}
	r.mu.Lock()
	delete(r.conns, c)
	// Only deregister if we are still the registered conn for this id.
	left := joined && r.peers[id] == c
	if left {
		delete(r.peers, id)
	}
	r.mu.Unlock()
	if left {
		r.notify(PeerEvent{ID: id, Joined: false})
	}
	_ = c.Close()
}

// register reads c's HELLO and makes c the peer of the identity it names. It
// reports false when c sends anything else, fails first, or the router is
// closed.
func (r *Router) register(c *Conn) (string, bool) {
	hello, err := c.Recv()
	if err != nil || len(hello) != 2 || string(hello[0]) != "HELLO" {
		return "", false
	}
	id := string(hello[1])
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return "", false
	}
	if old, dup := r.peers[id]; dup {
		// Last writer wins, as with ZeroMQ identity reuse; drop the old conn.
		_ = old.Close()
	}
	r.peers[id] = c
	return id, true
}

func (r *Router) notify(ev PeerEvent) {
	select {
	case r.events <- ev:
	default: // event buffer full: drop rather than deadlock the read loop
	}
}

// Incoming returns the delivery channel. It is closed by Close.
func (r *Router) Incoming() <-chan Delivery { return r.incoming }

// Events returns peer join/leave notifications.
func (r *Router) Events() <-chan PeerEvent { return r.events }

// SendTo routes a message to the peer with the given identity.
func (r *Router) SendTo(id string, m Message) error {
	r.mu.Lock()
	c, ok := r.peers[id]
	closed := r.closed
	r.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if !ok {
		return fmt.Errorf("mq: no peer %q", id)
	}
	return c.Send(m)
}

// Disconnect drops a peer (used by the HTEX command channel's blacklist).
func (r *Router) Disconnect(id string) {
	r.mu.Lock()
	c, ok := r.peers[id]
	r.mu.Unlock()
	if ok {
		_ = c.Close()
	}
}

// Close shuts the router down, closing every accepted connection, a peer's
// or one that has not said HELLO. It returns once every connection's receive
// loop has exited, and then closes Incoming.
func (r *Router) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	conns := make([]*Conn, 0, len(r.conns))
	for c := range r.conns {
		conns = append(conns, c)
	}
	r.peers = map[string]*Conn{}
	r.mu.Unlock()

	close(r.done)
	err := r.l.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	r.wg.Wait()
	close(r.incoming)
	return err
}
