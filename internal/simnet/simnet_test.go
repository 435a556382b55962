package simnet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

func TestListenDialRoundTrip(t *testing.T) {
	n := NewNetwork(0)
	l, err := n.Listen("hub")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var got []byte
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := l.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		buf := make([]byte, 64)
		nr, err := c.Read(buf)
		if err != nil {
			t.Error(err)
			return
		}
		got = buf[:nr]
		if _, err := c.Write([]byte("pong")); err != nil {
			t.Error(err)
		}
	}()

	c, err := n.Dial("hub")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	nr, err := c.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if !bytes.Equal(got, []byte("ping")) || !bytes.Equal(buf[:nr], []byte("pong")) {
		t.Fatalf("round trip: %q / %q", got, buf[:nr])
	}
}

func TestDialUnknownRefused(t *testing.T) {
	n := NewNetwork(0)
	if _, err := n.Dial("nowhere"); !errors.Is(err, ErrConnRefused) {
		t.Fatalf("err = %v", err)
	}
}

func TestListenDuplicateAddr(t *testing.T) {
	n := NewNetwork(0)
	if _, err := n.Listen("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("a"); !errors.Is(err, ErrAddrInUse) {
		t.Fatalf("err = %v", err)
	}
}

func TestAutoAssignAddr(t *testing.T) {
	n := NewNetwork(0)
	l1, err := n.Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	l2, err := n.Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	if l1.Addr().String() == l2.Addr().String() {
		t.Fatal("auto-assigned addresses collide")
	}
	if _, err := n.Dial(l1.Addr().String()); err != nil {
		t.Fatal(err)
	}
}

func TestCloseListenerRefusesDials(t *testing.T) {
	n := NewNetwork(0)
	l, _ := n.Listen("x")
	_ = l.Close()
	if _, err := n.Dial("x"); err == nil {
		t.Fatal("dial to closed listener succeeded")
	}
	// Address is reusable after close.
	if _, err := n.Listen("x"); err != nil {
		t.Fatalf("relisten: %v", err)
	}
}

func TestAcceptAfterCloseReturnsErrClosed(t *testing.T) {
	n := NewNetwork(0)
	l, _ := n.Listen("x")
	_ = l.Close()
	if _, err := l.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("err = %v", err)
	}
}

func TestLatencyApplied(t *testing.T) {
	rtt := 20 * time.Millisecond
	n := NewNetwork(rtt)
	l, _ := n.Listen("slow")
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		buf := make([]byte, 8)
		_, _ = c.Read(buf)
		_, _ = c.Write(buf)
	}()
	c, err := n.Dial("slow")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, _ = c.Write([]byte("x"))
	buf := make([]byte, 8)
	if _, err := c.Read(buf); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < rtt {
		t.Fatalf("round trip %v < RTT %v", elapsed, rtt)
	}
}

func TestReadAfterCloseEOF(t *testing.T) {
	n := NewNetwork(0)
	l, _ := n.Listen("x")
	go func() {
		c, err := l.Accept()
		if err == nil {
			_ = c.Close()
		}
	}()
	c, err := n.Dial("x")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	deadline := time.Now().Add(2 * time.Second)
	_ = c.SetReadDeadline(deadline)
	if _, err := c.Read(buf); !errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want EOF", err)
	}
}

func TestWriteAfterPeerClose(t *testing.T) {
	n := NewNetwork(0)
	l, _ := n.Listen("x")
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	c, err := n.Dial("x")
	if err != nil {
		t.Fatal(err)
	}
	srv := <-accepted
	_ = srv.Close()
	// Eventually writes fail; the close is visible immediately here.
	if _, err := c.Write([]byte("x")); err == nil {
		t.Fatal("write to closed peer succeeded")
	}
}

func TestReadDeadline(t *testing.T) {
	n := NewNetwork(0)
	l, _ := n.Listen("x")
	go func() { _, _ = l.Accept() }()
	c, err := n.Dial("x")
	if err != nil {
		t.Fatal(err)
	}
	_ = c.SetReadDeadline(time.Now().Add(10 * time.Millisecond))
	buf := make([]byte, 1)
	_, err = c.Read(buf)
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("err = %v, want timeout", err)
	}
}

func TestPartialReadsLeftover(t *testing.T) {
	n := NewNetwork(0)
	l, _ := n.Listen("x")
	go func() {
		c, err := l.Accept()
		if err == nil {
			_, _ = c.Write([]byte("abcdef"))
		}
	}()
	c, err := n.Dial("x")
	if err != nil {
		t.Fatal(err)
	}
	small := make([]byte, 2)
	var got []byte
	for len(got) < 6 {
		nr, err := c.Read(small)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, small[:nr]...)
	}
	if string(got) != "abcdef" {
		t.Fatalf("got %q", got)
	}
}

// TestPipeAllocationFree: once the pipe's buffer is sized, a write and the
// read that drains it allocate nothing.
func TestPipeAllocationFree(t *testing.T) {
	client, server := newPair("x", 0)
	msg, buf := make([]byte, 64), make([]byte, 64)
	trip := func() {
		if _, err := client.Write(msg); err != nil {
			t.Fatal(err)
		}
		if n, err := server.Read(buf); err != nil || n != len(msg) {
			t.Fatalf("read %d bytes, %v", n, err)
		}
	}
	trip()
	if allocs := testing.AllocsPerRun(1000, trip); allocs != 0 {
		t.Fatalf("%.2f allocations per 64-byte write and read, want 0", allocs)
	}
}

// TestPipeDelayAcrossWrites: on a 20 ms RTT network, no byte is read before
// its own write plus RTT/2, and once several writes are readable one Read
// returns them all.
func TestPipeDelayAcrossWrites(t *testing.T) {
	const rtt = 20 * time.Millisecond
	client, server := newPair("x", rtt/2)
	var sent [6]time.Time
	round := make(chan struct{})
	go func() {
		for i := range sent {
			if i%3 > 0 {
				time.Sleep(5 * time.Millisecond)
			}
			sent[i] = time.Now()
			if _, err := client.Write([]byte{byte(i)}); err != nil {
				t.Error(err)
				return
			}
			if i%3 == 2 {
				round <- struct{}{}
			}
		}
	}()
	buf := make([]byte, 8)
	for got := 0; got < 3; {
		n, err := server.Read(buf)
		at := time.Now()
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range buf[:n] {
			if early := sent[b].Add(rtt / 2).Sub(at); early > 0 {
				t.Fatalf("byte of write %d read %v before its delay ended", b, early)
			}
		}
		got += n
	}
	<-round
	<-round
	time.Sleep(rtt / 2)
	if n, err := server.Read(buf); err != nil || !bytes.Equal(buf[:n], []byte{3, 4, 5}) {
		t.Fatalf("one read after three readable writes = %v, %v; want [3 4 5]", buf[:n], err)
	}
}

// TestPipeBoundBlocksWriter: a writer parks once the peer holds maxUnread
// bytes unread and resumes after a read; a writer parked when the peer
// closes gets io.ErrClosedPipe.
func TestPipeBoundBlocksWriter(t *testing.T) {
	client, server := newPair("x", 0)
	write := func(n int) <-chan error {
		done := make(chan error, 1)
		go func() {
			_, err := client.Write(make([]byte, n))
			done <- err
		}()
		return done
	}
	if err := <-write(maxUnread); err != nil {
		t.Fatalf("a write into an empty pipe: %v", err)
	}
	parked := write(1)
	select {
	case err := <-parked:
		t.Fatalf("a write past the bound returned (%v) before any read", err)
	case <-time.After(20 * time.Millisecond):
	}
	if _, err := server.Read(make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-parked:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the parked writer did not resume after a read")
	}
	parked = write(maxUnread)
	select {
	case err := <-parked:
		t.Fatalf("a write past the bound returned (%v) before any read", err)
	case <-time.After(20 * time.Millisecond):
	}
	_ = server.Close()
	select {
	case err := <-parked:
		if !errors.Is(err, io.ErrClosedPipe) {
			t.Fatalf("parked writer after the peer closed: %v, want io.ErrClosedPipe", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the parked writer did not return after the peer closed")
	}
}

func TestAddrs(t *testing.T) {
	n := NewNetwork(0)
	l, _ := n.Listen("hub")
	if l.Addr().Network() != "sim" || l.Addr().String() != "hub" {
		t.Fatalf("addr = %v/%v", l.Addr().Network(), l.Addr())
	}
	go func() { _, _ = l.Accept() }()
	c, _ := n.Dial("hub")
	if c.RemoteAddr().String() != "hub" {
		t.Fatalf("remote = %v", c.RemoteAddr())
	}
}

func TestTestbedPresets(t *testing.T) {
	if Midway().RTT != 70*time.Microsecond {
		t.Fatal("midway rtt")
	}
	if BlueWaters().RTT != 40*time.Microsecond {
		t.Fatal("blue waters rtt")
	}
}

func TestTCPTransportLoopback(t *testing.T) {
	var tr TCP
	l, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_, _ = io.Copy(c, c) // echo
	}()
	c, err := tr.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello" {
		t.Fatalf("echo = %q", buf)
	}
}

func TestManyConcurrentConns(t *testing.T) {
	n := NewNetwork(0)
	l, _ := n.Listen("hub")
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 16)
				nr, err := c.Read(buf)
				if err != nil {
					return
				}
				_, _ = c.Write(buf[:nr])
			}(c)
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := n.Dial("hub")
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			msg := []byte{byte(i)}
			_, _ = c.Write(msg)
			buf := make([]byte, 1)
			if _, err := io.ReadFull(c, buf); err != nil {
				t.Error(err)
				return
			}
			if buf[0] != byte(i) {
				t.Errorf("conn %d echo mismatch", i)
			}
		}(i)
	}
	wg.Wait()
}
