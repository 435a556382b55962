package mq

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"

	"repro/internal/serialize"
)

// TestReadFrameClaimBeforeRead regresses a claim-before-read allocation: a
// frame announcing one 64 MiB part and then ending must fail without
// allocating the claim.
func TestReadFrameClaimBeforeRead(t *testing.T) {
	in := []byte{0, 0, 0, 1, 4, 0, 0, 0}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrame(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated frame accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("an %d-byte frame claiming 64 MiB allocated %d bytes, want < 1 MiB", len(in), got)
	}
}

// TestReadFrameLargePart: a part longer than the first allocation still
// arrives intact, and a truncated one is refused.
func TestReadFrameLargePart(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789abcdef"), 20_000) // 320 000 bytes
	var buf bytes.Buffer
	if err := writeFrame(&buf, Message{[]byte("tag"), big}); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()
	out, err := readFrame(bytes.NewReader(wire))
	if err != nil || len(out) != 2 || !bytes.Equal(out[1], big) {
		t.Fatalf("large part: %d parts, err %v", len(out), err)
	}
	if _, err := readFrame(bytes.NewReader(wire[:len(wire)-1])); err == nil {
		t.Fatal("truncated large part accepted")
	}
}

// FuzzReadFrame throws arbitrary bytes at the frame reader. Whatever the
// input: no panic, no allocation beyond a small multiple of the input (every
// claim is paid for only as its bytes arrive), and whatever decodes
// re-encodes to exactly the bytes it was read from, which decode again to
// the same message.
func FuzzReadFrame(f *testing.F) {
	var seeds []Message
	seeds = append(seeds,
		Message{[]byte("HELLO"), []byte("mgr-0")},
		Message{[]byte("HB")},
		Message{[]byte("HB"), []byte("digest-a"), []byte("digest-b")},
		Message{[]byte("REG"), []byte("2")},
		Message{[]byte("BYE")},
		Message{},
		Message{[]byte("CANCEL"), serialize.EncodeIDs([]int64{1, 2, 3})},
		Message{[]byte("LOST"), serialize.EncodeIDs([]int64{7}), []byte("heartbeat"), []byte("mgr-1")},
		Message{[]byte("task"), serialize.EncodeWire(serialize.WireTask{ID: 5, App: "echo", Tenant: "t", P: []byte{1, 2, 3}})},
		Message{[]byte("result"), serialize.EncodeResult(serialize.ResultMsg{ID: 5, Value: "v", WorkerID: "w"})},
	)
	_ = serialize.NewStreamEncoder().EncodeTasks([]serialize.WireTask{{ID: 1, App: "echo", P: []byte{9}}, {ID: 2, App: "echo"}},
		func(fr []byte) error { seeds = append(seeds, Message{[]byte("TASKB"), bytes.Clone(fr)}); return nil })
	_ = serialize.NewStreamEncoder().EncodeResults([]serialize.ResultMsg{{ID: 1, Value: 1}, {ID: 2, Err: "boom"}},
		func(fr []byte) error { seeds = append(seeds, Message{[]byte("RESULTS"), bytes.Clone(fr)}); return nil })
	for _, m := range seeds {
		var buf bytes.Buffer
		if err := writeFrame(&buf, m); err != nil {
			f.Fatal(err)
		}
		s := buf.Bytes()
		f.Add(s)
		f.Add(s[:len(s)/2])
		f.Add(s[:len(s)-1])
	}
	f.Add([]byte{0, 0, 0, 1, 4, 0, 0, 0})
	f.Add([]byte{0, 1, 0, 0})

	f.Fuzz(func(t *testing.T, in []byte) {
		readers := [runs]*bytes.Reader{bytes.NewReader(in), bytes.NewReader(in), bytes.NewReader(in)}
		var m Message
		var err error
		used := leastAllocated(func(run int) { m, err = readFrame(readers[run]) })
		r := readers[runs-1]
		// The fixed part covers one capped first read for a part whose bytes
		// never arrive (firstPart) and the capped part list; the multiple
		// covers a part buffer that doubled just before the input ran out,
		// plus the slice headers of many empty parts.
		if limit := uint64(firstPart + 4<<10 + 8*len(in)); used > limit {
			t.Fatalf("reading a %d-byte input allocated %d bytes (limit %d)", len(in), used, limit)
		}
		if err != nil {
			return
		}
		consumed := in[:len(in)-r.Len()]
		var buf bytes.Buffer
		if err := writeFrame(&buf, m); err != nil {
			t.Fatalf("decoded message does not re-encode: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), consumed) {
			t.Fatalf("re-encoding differs from the bytes read:\n%x\n%x", buf.Bytes(), consumed)
		}
		again, err := readFrame(bytes.NewReader(buf.Bytes()))
		if err != nil || len(again) != len(m) {
			t.Fatalf("re-encoded frame does not decode: %d parts, %v", len(again), err)
		}
		for i := range m {
			if !bytes.Equal(again[i], m[i]) {
				t.Fatalf("part %d changed on the round trip", i)
			}
		}
	})
}

// chunks hands out in in pieces whose sizes cycle through cuts (a byte c is
// a piece of c+1 bytes; no cuts is one piece), then io.EOF on every read, as
// a closed connection keeps returning its error.
type chunks struct {
	in, cuts []byte
	i        int
}

func (c *chunks) Read(p []byte) (int, error) {
	if len(c.in) == 0 {
		return 0, io.EOF
	}
	n := len(c.in)
	if len(c.cuts) > 0 {
		n = min(n, int(c.cuts[c.i%len(c.cuts)])+1)
		c.i++
	}
	n = copy(p, c.in[:n])
	c.in = c.in[n:]
	return n, nil
}

// FuzzConnRecv feeds arbitrary bytes to Conn.Recv in fuzzer-chosen pieces
// through a read buffer of fuzzer-chosen size, so frames take both the
// in-buffer parse and the readFrame fallback and straddle buffer fills.
// Message for message and error for error, Recv must read what readFrame
// reads from the same bytes, within FuzzReadFrame's allocation bound, and
// every part's capacity must be its length. Conn.RecvFrame, reading the same
// pieces through its own Conn, must return exactly what Recv returned, each
// frame checked and released before the next receive reuses its storage.
func FuzzConnRecv(f *testing.F) {
	var stream bytes.Buffer
	for _, m := range []Message{
		{[]byte("HELLO"), []byte("mgr-0")},
		{[]byte("HB"), []byte("digest-a"), []byte("digest-b")},
		{},
		{[]byte("TASKB"), bytes.Repeat([]byte{7}, 300)},
		{[]byte("RESULTS"), bytes.Repeat([]byte{9}, 20_000), nil},
		{[]byte("BYE")},
	} {
		if err := writeFrame(&stream, m); err != nil {
			f.Fatal(err)
		}
	}
	s := stream.Bytes()
	for _, cuts := range [][]byte{nil, {0}, {6, 200, 31}} {
		for _, size := range []uint16{0, 100, recvBuffer - 16} {
			f.Add(s, cuts, size)
			f.Add(s[:len(s)-1], cuts, size)
			f.Add(s[:len(s)/3], cuts, size)
		}
	}
	f.Add([]byte{0, 0, 0, 1, 4, 0, 0, 0}, []byte(nil), uint16(0))

	f.Fuzz(func(t *testing.T, in, cuts []byte, size uint16) {
		// Every message is read, so the cost grows with the input; 128 KiB
		// holds many frames larger than the largest buffer.
		in = in[:min(len(in), 128<<10)]
		conn := func() *Conn {
			return &Conn{r: bufio.NewReaderSize(&chunks{in: in, cuts: cuts}, 16+int(size)%(2*recvBuffer))}
		}
		conns := [runs]*Conn{conn(), conn(), conn()}
		got := make([]Message, 0, len(in)/4+1)
		var err error
		used := leastAllocated(func(run int) {
			got, err = got[:0], nil
			for err == nil {
				var m Message
				if m, err = conns[run].Recv(); err == nil {
					got = append(got, m)
				}
			}
		})
		if limit := uint64(firstPart + 4<<10 + 8*len(in)); used > limit {
			t.Fatalf("receiving a %d-byte input allocated %d bytes (limit %d)", len(in), used, limit)
		}
		r := bytes.NewReader(in)
		for i := 0; ; i++ {
			want, wantErr := readFrame(r)
			if wantErr != nil {
				if i != len(got) || fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("Recv read %d messages, then %v; readFrame read %d, then %v", len(got), err, i, wantErr)
				}
				break
			}
			if i == len(got) {
				t.Fatalf("Recv failed after %d messages (%v); readFrame read another", i, err)
			}
			checkMessage(t, "Recv", i, got[i], want)
		}

		conns = [runs]*Conn{conn(), conn(), conn()}
		used = leastAllocated(func(run int) {
			for i := 0; ; i++ {
				f, ferr := conns[run].RecvFrame()
				if ferr != nil || i == len(got) {
					if i != len(got) || fmt.Sprint(ferr) != fmt.Sprint(err) {
						t.Fatalf("message %d: RecvFrame failed with %v; Recv read %d messages, then %v", i, ferr, len(got), err)
					}
					break
				}
				checkMessage(t, "RecvFrame", i, f.Msg, got[i])
				f.Release()
			}
		})
		// A frame past the buffer costs RecvFrame a Frame beside readFrame's
		// part list and parts, so its bound is FuzzReadFrame's doubled.
		if limit := 2 * uint64(firstPart+4<<10+8*len(in)); used > limit {
			t.Fatalf("RecvFrame on a %d-byte input allocated %d bytes (limit %d)", len(in), used, limit)
		}
	})
}

// runs is how many times leastAllocated reads one input.
const runs = 3

// leastAllocated calls read(0), read(1) and read(2), each on its own fresh
// copy of one input, and returns the fewest bytes one call allocated. The
// count is process-wide (runtime.MemStats.TotalAlloc), so an allocation by
// any other goroutine of the test binary can only add to a call's reading:
// the smallest of three is the one least disturbed.
func leastAllocated(read func(run int)) uint64 {
	least := uint64(math.MaxUint64)
	for run := 0; run < runs; run++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		read(run)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// checkMessage fails t unless got, the i-th message a receive method read,
// has want's parts, each with capacity equal to its length.
func checkMessage(t *testing.T, method string, i int, got, want Message) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("message %d: %s read %d parts, readFrame %d", i, method, len(got), len(want))
	}
	for j, part := range got {
		if !bytes.Equal(part, want[j]) || cap(part) != len(part) {
			t.Fatalf("message %d part %d: %s read %x (cap %d), readFrame %x", i, j, method, part, cap(part), want[j])
		}
	}
}

// repeat reads frame over and over, as a connection carrying the same
// message forever.
type repeat struct {
	frame []byte
	off   int
}

func (r *repeat) Read(p []byte) (int, error) {
	n := copy(p, r.frame[r.off:])
	r.off = (r.off + n) % len(r.frame)
	return n, nil
}

// TestRecvFrameAllocationFree: once a released Frame's storage has grown to
// a frame's size, RecvFrame reads each further frame that fits the read
// buffer into it without allocating — the receive loop of a client that
// decodes every frame before it asks for the next.
func TestRecvFrameAllocationFree(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, Message{[]byte("RESULTS"), bytes.Repeat([]byte{3}, 300)}); err != nil {
		t.Fatal(err)
	}
	c := &Conn{r: bufio.NewReaderSize(&repeat{frame: buf.Bytes()}, recvBuffer)}
	recv := func() {
		f, err := c.RecvFrame()
		if err != nil || len(f.Msg) != 2 || string(f.Msg[0]) != "RESULTS" || len(f.Msg[1]) != 300 {
			t.Fatalf("RecvFrame = %v, %v", f, err)
		}
		f.Release()
	}
	if n := testing.AllocsPerRun(1000, recv); n != 0 {
		t.Fatalf("%.2f allocations per RecvFrame, want 0", n)
	}
}
