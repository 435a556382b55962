package mq

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"slices"
	"strconv"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/simnet"
)

func newNet() *simnet.Network { return simnet.NewNetwork(0) }

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := Message{[]byte("a"), []byte(""), []byte("longer part here")}
	if err := writeFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || string(out[0]) != "a" || len(out[1]) != 0 || string(out[2]) != "longer part here" {
		t.Fatalf("out = %v", out)
	}
}

func TestFrameEmptyMessage(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, Message{}); err != nil {
		t.Fatal(err)
	}
	out, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("out = %v", out)
	}
}

func TestFrameRejectsOversizedClaims(t *testing.T) {
	// A frame header claiming 2^31 parts must be rejected, not allocated.
	buf := bytes.NewReader([]byte{0x80, 0, 0, 0})
	if _, err := readFrame(buf); err == nil {
		t.Fatal("oversized part count accepted")
	}
}

func TestDealerRequiresIdentity(t *testing.T) {
	n := newNet()
	r, err := NewRouter(n, "hub")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := DialDealer(n, "hub", ""); err == nil {
		t.Fatal("empty identity accepted")
	}
}

func TestRouterDealerExchange(t *testing.T) {
	n := newNet()
	r, err := NewRouter(n, "hub")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	d, err := DialDealer(n, "hub", "mgr-1")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	if err := d.Send(Message{[]byte("task"), []byte("42")}); err != nil {
		t.Fatal(err)
	}
	del := <-r.Incoming()
	if del.From != "mgr-1" || string(del.Msg[0]) != "task" {
		t.Fatalf("delivery = %+v", del)
	}
	if err := r.SendTo("mgr-1", Message{[]byte("result")}); err != nil {
		t.Fatal(err)
	}
	m, err := d.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(m[0]) != "result" {
		t.Fatalf("m = %v", m)
	}
}

func TestRouterPeerEvents(t *testing.T) {
	n := newNet()
	r, _ := NewRouter(n, "hub")
	defer r.Close()
	d, err := DialDealer(n, "hub", "w1")
	if err != nil {
		t.Fatal(err)
	}
	ev := <-r.Events()
	if !ev.Joined || ev.ID != "w1" {
		t.Fatalf("join event = %+v", ev)
	}
	if !hasPeer(r, "w1") {
		t.Fatal("peer not registered")
	}
	_ = d.Close()
	ev = <-r.Events()
	if ev.Joined || ev.ID != "w1" {
		t.Fatalf("leave event = %+v", ev)
	}
	waitFor(t, func() bool { return !hasPeer(r, "w1") })
}

func TestRouterSendToUnknownPeer(t *testing.T) {
	n := newNet()
	r, _ := NewRouter(n, "hub")
	defer r.Close()
	if err := r.SendTo("ghost", Message{[]byte("x")}); err == nil {
		t.Fatal("send to unknown peer succeeded")
	}
}

func TestRouterManyDealersFanIn(t *testing.T) {
	n := newNet()
	r, _ := NewRouter(n, "hub")
	defer r.Close()
	const peers = 32
	var wg sync.WaitGroup
	for i := 0; i < peers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, err := DialDealer(n, "hub", fmt.Sprintf("w%d", i))
			if err != nil {
				t.Error(err)
				return
			}
			defer d.Close()
			if err := d.Send(Message{[]byte(fmt.Sprintf("hello-%d", i))}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	seen := map[string]bool{}
	for i := 0; i < peers; i++ {
		del := <-r.Incoming()
		seen[del.From] = true
	}
	wg.Wait()
	if len(seen) != peers {
		t.Fatalf("saw %d distinct peers, want %d", len(seen), peers)
	}
}

func TestRouterIdentityReuseLastWins(t *testing.T) {
	n := newNet()
	r, _ := NewRouter(n, "hub")
	defer r.Close()
	d1, err := DialDealer(n, "hub", "dup")
	if err != nil {
		t.Fatal(err)
	}
	<-r.Events() // join d1
	d2, err := DialDealer(n, "hub", "dup")
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	<-r.Events() // join d2 (replacing d1)
	// The message routed to "dup" must arrive at d2.
	waitFor(t, func() bool { return hasPeer(r, "dup") })
	if err := r.SendTo("dup", Message{[]byte("ping")}); err != nil {
		t.Fatal(err)
	}
	m, err := d2.Recv()
	if err != nil {
		t.Fatalf("second dealer recv: %v", err)
	}
	if string(m[0]) != "ping" {
		t.Fatalf("m = %v", m)
	}
	_ = d1.Close()
}

func TestRouterDisconnectPeer(t *testing.T) {
	n := newNet()
	r, _ := NewRouter(n, "hub")
	defer r.Close()
	d, err := DialDealer(n, "hub", "bad")
	if err != nil {
		t.Fatal(err)
	}
	<-r.Events()
	r.Disconnect("bad")
	if _, err := d.Recv(); err == nil {
		t.Fatal("recv on disconnected dealer succeeded")
	}
	waitFor(t, func() bool { return !hasPeer(r, "bad") })
}

func TestRouterClose(t *testing.T) {
	n := newNet()
	r, _ := NewRouter(n, "hub")
	d, err := DialDealer(n, "hub", "w")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.SendTo("w", Message{[]byte("x")}); err != ErrClosed {
		t.Fatalf("SendTo after close = %v", err)
	}
	if _, err := d.Recv(); err == nil {
		t.Fatal("dealer recv after router close succeeded")
	}
	// Double close is safe.
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRouterCloseClosesSilentConn: a connection the router accepted but
// that never said HELLO is the router's from its accept, so Close closes it
// and waits for its receive loop, which the package's leak gate then finds
// gone. The dealer dialed after it has joined, so it was accepted.
func TestRouterCloseClosesSilentConn(t *testing.T) {
	n := newNet()
	r, _ := NewRouter(n, "hub")
	silent, err := n.Dial("hub")
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	d, err := DialDealer(n, "hub", "witness")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if ev := <-r.Events(); !ev.Joined || ev.ID != "witness" {
		t.Fatalf("join event = %+v", ev)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	_ = silent.SetReadDeadline(time.Now().Add(2 * time.Second))
	var timeout net.Error
	if _, err := silent.Read(make([]byte, 1)); err == nil || errors.As(err, &timeout) && timeout.Timeout() {
		t.Fatalf("read on the silent connection after Close = %v; want it closed by the router", err)
	}
}

func TestConcurrentSendsOnOneDealer(t *testing.T) {
	n := newNet()
	r, _ := NewRouter(n, "hub")
	defer r.Close()
	d, err := DialDealer(n, "hub", "w")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const msgs = 200
	var wg sync.WaitGroup
	for i := 0; i < msgs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = d.Send(Message{[]byte(fmt.Sprintf("%d", i))})
		}(i)
	}
	got := 0
	for got < msgs {
		<-r.Incoming()
		got++
	}
	wg.Wait() // frames must never interleave/corrupt
}

func TestOverTCPTransport(t *testing.T) {
	var tr simnet.TCP
	r, err := NewRouter(tr, "127.0.0.1:0")
	if err != nil {
		t.Skipf("tcp unavailable: %v", err)
	}
	defer r.Close()
	d, err := DialDealer(tr, r.Addr(), "tcp-worker")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Send(Message{[]byte("over-tcp")}); err != nil {
		t.Fatal(err)
	}
	del := <-r.Incoming()
	if del.From != "tcp-worker" || string(del.Msg[0]) != "over-tcp" {
		t.Fatalf("delivery = %+v", del)
	}
}

// TestRefusedSendLeavesStreamInStep: a message refused for its second part's
// size must not have written its first part, or the receiver reads the next
// frame out of step, and every frame after it.
func TestRefusedSendLeavesStreamInStep(t *testing.T) {
	n := newNet()
	r, _ := NewRouter(n, "hub")
	defer r.Close()
	d, err := DialDealer(n, "hub", "w")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Send(Message{[]byte("A"), make([]byte, MaxPartSize+1)}); err == nil {
		t.Fatal("a part over MaxPartSize was sent")
	}
	if err := d.Send(Message{[]byte("NEXT")}); err != nil {
		t.Fatal(err)
	}
	select {
	case del := <-r.Incoming():
		if len(del.Msg) != 1 || string(del.Msg[0]) != "NEXT" {
			t.Fatalf("after a refused Send the router read %q, want [NEXT]", del.Msg)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no delivery after a refused Send")
	}
}

// TestRouterCloseClosesIncoming: Close returns with a receive loop blocked on
// a full Incoming, and then a range over Incoming ends.
func TestRouterCloseClosesIncoming(t *testing.T) {
	n := newNet()
	r, _ := NewRouter(n, "hub")
	d, err := DialDealer(n, "hub", "w")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for range cap(r.incoming) + 1 {
		if err := d.Send(Message{[]byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return len(r.Incoming()) == cap(r.incoming) })
	closed := make(chan error, 1)
	go func() { closed <- r.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close hung with a receive loop blocked on a full Incoming")
	}
	ranged := make(chan int, 1)
	go func() {
		k := 0
		for range r.Incoming() {
			k++
		}
		ranged <- k
	}()
	select {
	case k := <-ranged:
		if k < cap(r.incoming) {
			t.Fatalf("ranged over %d deliveries, want the %d buffered", k, cap(r.incoming))
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a range over Incoming did not end after Close")
	}
}

// TestConnTCPManyParts: over TCP a frame is one vectored write, and Linux
// takes at most 1024 buffers per writev; a 2000-part frame and a 1 MiB part
// must both arrive intact, in both directions.
func TestConnTCPManyParts(t *testing.T) {
	var tr simnet.TCP
	r, err := NewRouter(tr, "127.0.0.1:0")
	if err != nil {
		t.Skipf("tcp unavailable: %v", err)
	}
	defer r.Close()
	d, err := DialDealer(tr, r.Addr(), "tcp-worker")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	many := make(Message, 2000)
	for i := range many {
		many[i] = []byte(strconv.Itoa(i))
	}
	big := Message{[]byte("big"), bytes.Repeat([]byte("0123456789abcdef"), 1<<16)}
	same := func(a, b Message) bool {
		return slices.EqualFunc(a, b, func(x, y []byte) bool { return bytes.Equal(x, y) })
	}
	for _, m := range []Message{many, big} {
		if err := d.Send(m); err != nil {
			t.Fatal(err)
		}
		del := <-r.Incoming()
		if !same(del.Msg, m) {
			t.Fatalf("router received %d parts, want the %d sent", len(del.Msg), len(m))
		}
		if err := r.SendTo("tcp-worker", m); err != nil {
			t.Fatal(err)
		}
		back, err := d.Recv()
		if err != nil || !same(back, m) {
			t.Fatalf("dealer received %d parts (%v), want the %d sent", len(back), err, len(m))
		}
	}
}

// TestHeldFrameOutlivesReuse: a delivery a slow holder keeps a reference to
// stays byte-identical while later frames on the same connection are
// received into storage that released frames gave back, and a release past
// the last reference panics. Under -race the detector also sees the holder's
// reads on its own goroutine against the receive loop's writes into reused
// storage.
func TestHeldFrameOutlivesReuse(t *testing.T) {
	n := newNet()
	r, err := NewRouter(n, "hub")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	d, err := DialDealer(n, "hub", "mgr-1")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// One later frame at a time, each sent once the one before it is
	// released: a receive loop running ahead of its consumer has nothing
	// released to parse into.
	const later = 96
	held := bytes.Repeat([]byte{0xA5}, 300)
	next := make(chan struct{})
	go func() {
		_ = d.Send(Message{[]byte("HELD"), held})
		for i := range later {
			<-next
			_ = d.Send(Message{[]byte("LATER"), bytes.Repeat([]byte{byte(i)}, 300)})
		}
	}()

	first := <-r.Incoming()
	keep := first.Frame.Hold()
	first.Frame.Release() // the receiver's reference; the holder's keeps the storage
	check := make(chan error)
	release := make(chan struct{})
	go func() {
		<-release
		var err error
		if got := keep.Msg[1]; string(keep.Msg[0]) != "HELD" || !bytes.Equal(got, held) {
			err = fmt.Errorf("held frame reads %q %x after %d later frames", keep.Msg[0], got, later)
		}
		keep.Release()
		check <- err
	}()

	bodies := map[*byte]bool{}
	for i := range later {
		next <- struct{}{}
		del := <-r.Incoming()
		if string(del.Msg[0]) != "LATER" || !bytes.Equal(del.Msg[1], bytes.Repeat([]byte{byte(i)}, 300)) {
			t.Fatalf("frame %d reads %q %x", i, del.Msg[0], del.Msg[1])
		}
		if &del.Msg[1][0] == &keep.Msg[1][0] {
			t.Fatalf("frame %d was received into the held frame's storage", i)
		}
		bodies[&del.Msg[1][0]] = true
		del.Frame.Release()
	}
	close(release)
	if err := <-check; err != nil {
		t.Fatal(err)
	}
	if len(bodies) > freeFrames+1 {
		t.Fatalf("%d later frames used %d bodies; released storage is not reused", later, len(bodies))
	}

	defer func() {
		if recover() == nil {
			t.Fatal("a second Release of a released frame did not panic")
		}
	}()
	keep.Release()
}

// BenchmarkRouterRoundTrip: a dealer's 64-byte message echoed by the router,
// one at a time, over each transport.
func BenchmarkRouterRoundTrip(b *testing.B) {
	for _, tc := range []struct {
		name string
		tr   simnet.Transport
		addr string
	}{
		{"simnet", simnet.NewNetwork(0), ":0"},
		{"tcp", simnet.TCP{}, "127.0.0.1:0"},
	} {
		b.Run(tc.name, func(b *testing.B) {
			r, err := NewRouter(tc.tr, tc.addr)
			if err != nil {
				b.Skipf("%s unavailable: %v", tc.name, err)
			}
			defer r.Close()
			go func() {
				for del := range r.Incoming() {
					_ = r.SendTo(del.From, del.Msg)
				}
			}()
			d, err := DialDealer(tc.tr, r.Addr(), "bench")
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			msg := Message{[]byte("PING"), make([]byte, 64)}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if err := d.Send(msg); err != nil {
					b.Fatal(err)
				}
				if _, err := d.Recv(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Property: any multipart payload survives the frame codec byte-for-byte.
func TestQuickFrameRoundTrip(t *testing.T) {
	prop := func(parts [][]byte) bool {
		if len(parts) > 64 {
			parts = parts[:64]
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, Message(parts)); err != nil {
			return false
		}
		out, err := readFrame(&buf)
		if err != nil {
			return false
		}
		if len(out) != len(parts) {
			return false
		}
		for i := range parts {
			if !bytes.Equal(out[i], parts[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not met within deadline")
}

// hasPeer reports whether id is connected.
func hasPeer(r *Router, id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.peers[id]
	return ok
}
