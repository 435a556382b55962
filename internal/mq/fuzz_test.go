package mq

import (
	"bytes"
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
		r := bytes.NewReader(in)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := readFrame(r)
		runtime.ReadMemStats(&after)
		// The fixed part covers one capped first read for a part whose bytes
		// never arrive (firstPart) and the capped part list; the multiple
		// covers a part buffer that doubled just before the input ran out,
		// plus the slice headers of many empty parts.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(firstPart+4<<10+8*len(in)); got > limit {
			t.Fatalf("reading a %d-byte input allocated %d bytes (limit %d)", len(in), got, limit)
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
