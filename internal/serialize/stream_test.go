package serialize

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

// collect returns a send func that appends a copy of each frame (the codec
// only guarantees the bytes during send, exactly like a transport write).
func collect(frames *[][]byte) func([]byte) error {
	return func(b []byte) error {
		cp := make([]byte, len(b))
		copy(cp, b)
		*frames = append(*frames, cp)
		return nil
	}
}

func mkTaskBatch(r *rand.Rand, n int) []WireTask {
	batch := make([]WireTask, n)
	for i := range batch {
		args := []any{r.Int(), fmt.Sprintf("arg-%d", r.Intn(1000)), r.Float64()}
		kw := map[string]any{"k": r.Intn(10), "mode": "m"}
		p, err := EncodeArgs(args, kw)
		if err != nil {
			panic(err)
		}
		m := TaskMsg{ID: r.Int63(), App: "app", Priority: r.Intn(5)}
		m.AttachPayload(p)
		w, err := m.Wire()
		if err != nil {
			panic(err)
		}
		batch[i] = w
	}
	return batch
}

func mkResultBatch(r *rand.Rand, n int) []ResultMsg {
	batch := make([]ResultMsg, n)
	for i := range batch {
		batch[i] = ResultMsg{
			ID: r.Int63(), Value: r.Intn(1 << 20),
			WorkerID: fmt.Sprintf("w%d", r.Intn(8)),
		}
		if r.Intn(4) == 0 {
			batch[i].Err = "boom"
		}
	}
	return batch
}

// TestStreamRoundTripTaskAndResultBatches drives many randomly sized task
// and result batches through one persistent encoder/decoder pair and checks
// every batch survives byte-identical (args included).
func TestStreamRoundTripTaskAndResultBatches(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	enc := NewStreamEncoder()
	dec := NewStreamDecoder()
	for round := 0; round < 50; round++ {
		if round%2 == 0 {
			in := mkTaskBatch(r, 1+r.Intn(8))
			var frames [][]byte
			if err := enc.EncodeFrame(in, collect(&frames)); err != nil {
				t.Fatal(err)
			}
			var out []WireTask
			if err := dec.DecodeFrame(frames[0], &out); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if !reflect.DeepEqual(in, out) {
				t.Fatalf("round %d: task batch mutated in transit", round)
			}
			// The payload must decode to executable args on the far side.
			got, err := out[0].Task()
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Args) != 3 || got.Kwargs["mode"] != "m" {
				t.Fatalf("args lost: %+v", got)
			}
		} else {
			in := mkResultBatch(r, 1+r.Intn(8))
			var frames [][]byte
			if err := enc.EncodeFrame(in, collect(&frames)); err != nil {
				t.Fatal(err)
			}
			var out []ResultMsg
			if err := dec.DecodeFrame(frames[0], &out); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if !reflect.DeepEqual(in, out) {
				t.Fatalf("round %d: result batch mutated in transit", round)
			}
		}
	}
}

// TestStreamFramesAreStateless pins what replaced gob's descriptor
// amortization: a frame carries nothing but its batch and its number, so every
// frame of the same batch has the same length up to the sequence varint — and
// it is the number alone that keeps a late receiver out of a running stream.
func TestStreamFramesAreStateless(t *testing.T) {
	batch := mkResultBatch(rand.New(rand.NewSource(2)), 4)
	enc := NewStreamEncoder()
	var frames [][]byte
	for i := 0; i < 200; i++ {
		if err := enc.EncodeFrame(batch, collect(&frames)); err != nil {
			t.Fatal(err)
		}
	}
	for i, f := range frames {
		seqLen := len(binary.AppendUvarint(nil, uint64(i)))
		if len(f)-seqLen != len(frames[0])-1 {
			t.Fatalf("frame %d is %dB with a %dB sequence number; frame 0 is %dB with 1B", i, len(f), seqLen, len(frames[0]))
		}
	}
	var out []ResultMsg
	if err := NewStreamDecoder().DecodeFrame(frames[0], &out); err != nil || !reflect.DeepEqual(batch, out) {
		t.Fatalf("fresh decoder on frame 0: %v %+v", err, out)
	}
	if err := NewStreamDecoder().DecodeFrame(frames[1], &out); err == nil {
		t.Fatal("fresh decoder accepted frame 1")
	}
}

// TestStreamDecoderResyncsOnNewEpoch models the reconnect path: a sender
// resets (fresh epoch, self-describing first frame) and the same decoder
// picks the new stream up without external coordination.
func TestStreamDecoderResyncsOnNewEpoch(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	enc := NewStreamEncoder()
	dec := NewStreamDecoder()

	var frames [][]byte
	a := mkResultBatch(r, 3)
	if err := enc.EncodeFrame(a, collect(&frames)); err != nil {
		t.Fatal(err)
	}
	var out []ResultMsg
	if err := dec.DecodeFrame(frames[0], &out); err != nil {
		t.Fatal(err)
	}

	// "Reconnect": the sender restarts its stream.
	enc.Reset()
	frames = nil
	b := mkResultBatch(r, 2)
	if err := enc.EncodeFrame(b, collect(&frames)); err != nil {
		t.Fatal(err)
	}
	out = nil
	if err := dec.DecodeFrame(frames[0], &out); err != nil {
		t.Fatalf("decoder did not resync on new epoch: %v", err)
	}
	if !reflect.DeepEqual(b, out) {
		t.Fatal("post-reset batch mutated in transit")
	}
}

// TestStreamDecoderJoinsFreshStreamOnly is the other half of the reconnect
// story: a receiver that appears mid-stream (fresh decoder, old epoch
// already past its first frame) must reject frames rather than misdecode,
// and must recover the moment the sender starts a new epoch.
func TestStreamDecoderJoinsFreshStreamOnly(t *testing.T) {
	enc := NewStreamEncoder()
	batch := mkResultBatch(rand.New(rand.NewSource(4)), 3)
	var frames [][]byte
	for i := 0; i < 3; i++ {
		if err := enc.EncodeFrame(batch, collect(&frames)); err != nil {
			t.Fatal(err)
		}
	}
	late := NewStreamDecoder()
	var out []ResultMsg
	if err := late.DecodeFrame(frames[2], &out); err == nil {
		t.Fatal("mid-stream join decoded successfully; descriptors were missing")
	}
	// Sender resets — the late receiver must sync on the fresh stream.
	enc.Reset()
	frames = nil
	if err := enc.EncodeFrame(batch, collect(&frames)); err != nil {
		t.Fatal(err)
	}
	out = nil
	if err := late.DecodeFrame(frames[0], &out); err != nil {
		t.Fatalf("late receiver did not recover on fresh epoch: %v", err)
	}
	if !reflect.DeepEqual(batch, out) {
		t.Fatal("recovered batch mutated")
	}
}

// TestOneShotFramesInterleaveWithStream checks mixed traffic: standalone
// id-list frames decode at any point without disturbing the stream's
// numbering.
func TestOneShotFramesInterleaveWithStream(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	enc := NewStreamEncoder()
	dec := NewStreamDecoder()
	for i := 0; i < 10; i++ {
		var frames [][]byte
		if i%3 == 2 {
			in := []int64{r.Int63(), -r.Int63(), 0}
			if err := enc.EncodeFrame(in, collect(&frames)); err != nil {
				t.Fatal(err)
			}
			var out []int64
			if err := dec.DecodeFrame(frames[0], &out); err != nil || !reflect.DeepEqual(in, out) {
				t.Fatalf("frame %d: %v %v", i, err, out)
			}
			continue
		}
		in := mkResultBatch(r, 2)
		if err := enc.EncodeFrame(in, collect(&frames)); err != nil {
			t.Fatal(err)
		}
		var out []ResultMsg
		if err := dec.DecodeFrame(frames[0], &out); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("frame %d mutated", i)
		}
	}
}

// TestStreamConcurrentEncodes hammers one StreamEncoder from many
// goroutines. The encoder's contract is that encode+send are atomic, so the
// frames — decoded in send order by one decoder — must yield every message
// exactly once, uncorrupted.
func TestStreamConcurrentEncodes(t *testing.T) {
	const workers, perWorker = 8, 50
	enc := NewStreamEncoder()
	var mu sync.Mutex
	var frames [][]byte
	send := func(b []byte) error {
		// Caller already holds the encoder lock; mu only guards the slice
		// against a hypothetical future in which send runs unlocked.
		mu.Lock()
		defer mu.Unlock()
		cp := make([]byte, len(b))
		copy(cp, b)
		frames = append(frames, cp)
		return nil
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				batch := []ResultMsg{{ID: int64(w*perWorker + i), WorkerID: fmt.Sprintf("w%d", w)}}
				if err := enc.EncodeFrame(batch, send); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	dec := NewStreamDecoder()
	seen := make(map[int64]bool)
	for i, f := range frames {
		var out []ResultMsg
		if err := dec.DecodeFrame(f, &out); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(out) != 1 || seen[out[0].ID] {
			t.Fatalf("frame %d: bad or duplicate message %+v", i, out)
		}
		seen[out[0].ID] = true
	}
	if len(seen) != workers*perWorker {
		t.Fatalf("recovered %d messages, want %d", len(seen), workers*perWorker)
	}
}

// TestStreamDecodeRejectsGarbage covers the decoder's failure modes: short
// frames, unknown tags, and corrupt stream bodies.
func TestStreamDecodeRejectsGarbage(t *testing.T) {
	dec := NewStreamDecoder()
	var v []ResultMsg
	if err := dec.DecodeFrame([]byte{1, 2}, &v); err == nil {
		t.Fatal("short frame decoded")
	}
	if err := dec.DecodeFrame([]byte{0x7f, 0, 0, 0, 1, 9, 9}, &v); err == nil {
		t.Fatal("unknown tag decoded")
	}
	if err := dec.DecodeFrame([]byte{0x01, 0, 0, 0, 1, 0xff, 0xfe, 0xfd}, &v); err == nil {
		t.Fatal("corrupt stream body decoded")
	}
	// The decoder must still work once real frames arrive.
	enc := NewStreamEncoder()
	in := []ResultMsg{{ID: 1}}
	var frames [][]byte
	if err := enc.EncodeFrame(in, collect(&frames)); err != nil {
		t.Fatal(err)
	}
	if err := dec.DecodeFrame(frames[0], &v); err != nil {
		t.Fatalf("decoder did not recover after garbage: %v", err)
	}
}

// TestStreamEncoderSurvivesUnencodableValue: a refused value must neither
// kill the encoder nor desync subsequent frames (it consumes no frame
// number).
func TestStreamEncoderSurvivesUnencodableValue(t *testing.T) {
	enc := NewStreamEncoder()
	dec := NewStreamDecoder()
	var frames [][]byte
	if err := enc.EncodeFrame([]ResultMsg{{ID: 1}}, collect(&frames)); err != nil {
		t.Fatal(err)
	}
	if err := enc.EncodeFrame(make(chan int), collect(&frames)); err == nil {
		t.Fatal("channel encoded")
	}
	if err := enc.EncodeFrame([]ResultMsg{{ID: 2}}, collect(&frames)); err != nil {
		t.Fatal(err)
	}
	var out []ResultMsg
	for i, f := range frames {
		out = nil
		if err := dec.DecodeFrame(f, &out); err != nil {
			t.Fatalf("frame %d after poison: %v", i, err)
		}
	}
	if out[0].ID != 2 {
		t.Fatalf("post-poison frame decoded to %+v", out)
	}
}

// Property: any (ids × values) batch round-trips the streaming codec
// losslessly, regardless of batch size or how many frames preceded it.
func TestQuickStreamRoundTrip(t *testing.T) {
	enc := NewStreamEncoder()
	dec := NewStreamDecoder()
	prop := func(ids []int64, val int, errStr string) bool {
		in := make([]ResultMsg, len(ids))
		for i, id := range ids {
			in[i] = ResultMsg{ID: id, Value: val, Err: errStr}
		}
		var frames [][]byte
		if err := enc.EncodeFrame(in, collect(&frames)); err != nil {
			return false
		}
		var out []ResultMsg
		if err := dec.DecodeFrame(frames[0], &out); err != nil {
			return false
		}
		if len(in) == 0 {
			return len(out) == 0
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFrameChecksumDetectsEveryByteFlip is the integrity property the chaos
// plane depends on: a frame with any single body byte flipped must fail
// DecodeFrame — never decode silently into wrong data. (Before the CRC-32C
// header field, a flipped byte inside a gob-encoded integer could decode
// "successfully" and deliver a wrong task result; chaos seed 4 caught it.)
func TestFrameChecksumDetectsEveryByteFlip(t *testing.T) {
	enc := NewStreamEncoder()
	var frames [][]byte
	in := []ResultMsg{{ID: 77, Value: 12345, WorkerID: "w"}}
	if err := enc.EncodeFrame(in, collect(&frames)); err != nil {
		t.Fatal(err)
	}
	frame := frames[0]
	for i := range frame {
		cp := append([]byte(nil), frame...)
		cp[i] ^= 0xA5
		dec := NewStreamDecoder()
		var out []ResultMsg
		if err := dec.DecodeFrame(cp, &out); err == nil {
			t.Fatalf("flip of byte %d decoded silently to %+v", i, out)
		}
	}
	// And every truncation.
	for n := 0; n < len(frame); n++ {
		dec := NewStreamDecoder()
		var out []ResultMsg
		if err := dec.DecodeFrame(frame[:n], &out); err == nil {
			t.Fatalf("truncation to %d bytes decoded silently", n)
		}
	}
	// The pristine frame still decodes.
	dec := NewStreamDecoder()
	var out []ResultMsg
	if err := dec.DecodeFrame(frame, &out); err != nil || out[0].ID != 77 {
		t.Fatalf("pristine frame: %v %+v", err, out)
	}
}

// TestOneShotChecksum: the standalone framings carry the same integrity
// guarantee.
func TestOneShotChecksum(t *testing.T) {
	w := WireTask{ID: 9, App: "a", P: []byte{1, 2, 3}}
	for name, c := range map[string]struct {
		frame  []byte
		decode func([]byte) (any, error)
		want   any
	}{
		"ids":    {EncodeIDs([]int64{9, -4}), func(b []byte) (any, error) { return DecodeIDs(b) }, []int64{9, -4}},
		"task":   {EncodeWire(w), func(b []byte) (any, error) { return DecodeWire(b) }, w},
		"result": {EncodeResult(ResultMsg{ID: 9, Value: "v"}), func(b []byte) (any, error) { return DecodeResult(b) }, ResultMsg{ID: 9, Value: "v"}},
	} {
		for i := range c.frame {
			bad := append([]byte(nil), c.frame...)
			bad[i] ^= 0x01
			if got, err := c.decode(bad); err == nil {
				t.Fatalf("%s: flip of byte %d decoded to %+v", name, i, got)
			}
		}
		if got, err := c.decode(c.frame); err != nil || !reflect.DeepEqual(got, c.want) {
			t.Fatalf("%s: pristine frame: %v %+v", name, err, got)
		}
	}
}

// TestStreamSequenceRule is the table for the one piece of state a stream
// has: the frame number. Each case feeds a fresh decoder a schedule of one
// encoder's frames and says which of them must be accepted.
func TestStreamSequenceRule(t *testing.T) {
	type step struct {
		frame int  // index into the encoder's output
		ok    bool // DecodeFrame succeeds
		n     int  // results delivered when ok
	}
	// Frames 0–3 belong to one epoch; Reset; frames 4–5 open the next.
	enc := NewStreamEncoder()
	var frames [][]byte
	for i := 0; i < 6; i++ {
		if i == 4 {
			enc.Reset()
		}
		if err := enc.EncodeResults([]ResultMsg{{ID: int64(i), Value: i}}, collect(&frames)); err != nil {
			t.Fatal(err)
		}
	}
	corrupt := append([]byte(nil), frames[1]...)
	corrupt[len(corrupt)-1] ^= 0xA5
	frames = append(frames, corrupt) // index 6: frame 1, corrupted in transit

	for name, schedule := range map[string][]step{
		"in order":                   {{0, true, 1}, {1, true, 1}, {2, true, 1}, {3, true, 1}},
		"gap kills the epoch":        {{0, true, 1}, {2, false, 0}, {3, false, 0}, {4, true, 1}, {5, true, 1}},
		"corruption kills the epoch": {{0, true, 1}, {6, false, 0}, {2, false, 0}, {3, false, 0}, {4, true, 1}},
		"duplicate is ignored":       {{0, true, 1}, {1, true, 1}, {1, true, 0}, {0, true, 0}, {2, true, 1}},
		"joined at frame 0 only":     {{1, false, 0}, {2, false, 0}, {4, true, 1}},
		"reset mid-conversation":     {{0, true, 1}, {1, true, 1}, {4, true, 1}, {5, true, 1}},
		"new epoch joined mid-way":   {{0, true, 1}, {5, false, 0}},
	} {
		dec := NewStreamDecoder()
		var out []ResultMsg
		for i, s := range schedule {
			err := dec.DecodeFrame(frames[s.frame], &out)
			if (err == nil) != s.ok {
				t.Fatalf("%s: step %d (frame %d): err = %v, want ok = %v", name, i, s.frame, err, s.ok)
			}
			if err == nil && len(out) != s.n {
				t.Fatalf("%s: step %d (frame %d): delivered %d results, want %d", name, i, s.frame, len(out), s.n)
			}
			if err == nil && s.n == 1 && out[0].ID != int64(s.frame) {
				t.Fatalf("%s: step %d: frame %d decoded to %+v", name, i, s.frame, out)
			}
		}
	}
}

// TestStreamRefusedFrameOpensNoGap: only a frame handed to send consumes a
// number. A value the encoder refuses leaves the sequence intact; a send that
// fails resets the stream, so the next frame is joinable on its own.
func TestStreamRefusedFrameOpensNoGap(t *testing.T) {
	enc := NewStreamEncoder()
	dec := NewStreamDecoder()
	var frames [][]byte
	var out []ResultMsg
	next := func(id int64) {
		t.Helper()
		frames = frames[:0]
		if err := enc.EncodeResults([]ResultMsg{{ID: id}}, collect(&frames)); err != nil {
			t.Fatal(err)
		}
		if err := dec.DecodeFrame(frames[0], &out); err != nil || len(out) != 1 || out[0].ID != id {
			t.Fatalf("frame for result %d: %v %+v", id, err, out)
		}
	}
	next(1)
	if err := enc.EncodeFrame(map[int]int{}, collect(&frames)); err == nil {
		t.Fatal("unsupported frame type encoded")
	}
	next(2)
	epoch := enc.Epoch()
	if err := enc.EncodeResults([]ResultMsg{{ID: 3}}, func([]byte) error { return fmt.Errorf("link down") }); err == nil {
		t.Fatal("send error swallowed")
	}
	if enc.Epoch() == epoch {
		t.Fatal("send error did not reset the stream")
	}
	next(4)
}

// TestUnserializableResultCostsOnlyItsTask: a Value of an unregistered type
// travels as that task's error result; the batch's other results, and the
// stream, are unaffected.
func TestUnserializableResultCostsOnlyItsTask(t *testing.T) {
	type unregistered struct{ X int }
	in := []ResultMsg{
		{ID: 1, Value: 7, WorkerID: "w0"},
		{ID: 2, Value: unregistered{3}, WorkerID: "w1"},
		{ID: 3, Value: "fine", WorkerID: "w0"},
	}
	enc, dec := NewStreamEncoder(), NewStreamDecoder()
	var frames [][]byte
	if err := enc.EncodeResults(in, collect(&frames)); err != nil {
		t.Fatal(err)
	}
	var out []ResultMsg
	if err := dec.DecodeFrame(frames[0], &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out[0], in[0]) || !reflect.DeepEqual(out[2], in[2]) {
		t.Fatalf("neighbours disturbed: %+v", out)
	}
	bad := out[1]
	if bad.ID != 2 || bad.Value != nil || bad.WorkerID != "w1" ||
		!strings.Contains(bad.Err, "result of task 2 is not serializable") || !strings.Contains(bad.Err, "unregistered") {
		t.Fatalf("poison result = %+v", bad)
	}
	one, err := DecodeResult(EncodeResult(in[1]))
	if err != nil || !reflect.DeepEqual(one, bad) {
		t.Fatalf("standalone frame: %v %+v", err, one)
	}
}

// TestRelayResults: a broker reads the id column, relays the envelopes
// without decoding them, and the far side sees the batch unchanged — on the
// broker's own stream, with the broker's own numbering.
func TestRelayResults(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	mgrA, mgrB, relay := NewStreamEncoder(), NewStreamEncoder(), NewStreamEncoder()
	decA, decB, client := NewStreamDecoder(), NewStreamDecoder(), NewStreamDecoder()
	var ids []int64
	for round := 0; round < 20; round++ {
		enc, dec := mgrA, decA
		if round%3 == 0 {
			enc, dec = mgrB, decB
		}
		in := mkResultBatch(r, r.Intn(6))
		var hop1, hop2 [][]byte
		if err := enc.EncodeResults(in, collect(&hop1)); err != nil {
			t.Fatal(err)
		}
		batch, err := dec.DecodeResultIDs(hop1[0], &ids)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(ids) != len(in) {
			t.Fatalf("round %d: %d ids for %d results", round, len(ids), len(in))
		}
		for i := range in {
			if ids[i] != in[i].ID {
				t.Fatalf("round %d: id %d = %d, want %d", round, i, ids[i], in[i].ID)
			}
		}
		if dup, err := dec.DecodeResultIDs(hop1[0], &ids); err != nil || dup != nil || len(ids) != 0 {
			t.Fatalf("round %d: duplicate frame: %v %v %v", round, err, dup, ids)
		}
		if err := relay.RelayResults(batch, collect(&hop2)); err != nil {
			t.Fatal(err)
		}
		var out []ResultMsg
		if err := client.DecodeFrame(hop2[0], &out); err != nil {
			t.Fatalf("round %d: relayed frame: %v", round, err)
		}
		if len(in) != len(out) || (len(in) > 0 && !reflect.DeepEqual(in, out)) {
			t.Fatalf("round %d: relayed batch mutated: %+v != %+v", round, out, in)
		}
	}
}

// TestDecodedPayloadOwnership pins the aliasing rule for WireTask.P: up to
// 64 KiB a frame's payload columns alias it, each capped at its own length,
// and past that they are copies — a task held for long must not pin (or be
// rewritten through) a large batch it does not own.
func TestDecodedPayloadOwnership(t *testing.T) {
	for _, size := range []int{100, 40 << 10} {
		in := []WireTask{
			{ID: 1, App: "a", P: bytes.Repeat([]byte{1}, size)},
			{ID: 2, App: "a", P: bytes.Repeat([]byte{2}, size)},
		}
		var frames [][]byte
		if err := NewStreamEncoder().EncodeTasks(in, collect(&frames)); err != nil {
			t.Fatal(err)
		}
		frame := frames[0]
		var out []WireTask
		if err := NewStreamDecoder().DecodeFrame(frame, &out); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("%d-byte payloads mutated in transit", size)
		}
		for i := range out {
			if cap(out[i].P) != len(out[i].P) {
				t.Fatalf("P of task %d has spare capacity %d: an append would write into the frame", i, cap(out[i].P)-len(out[i].P))
			}
		}
		for i := range frame {
			frame[i] = 0xEE
		}
		aliased := out[0].P[0] == 0xEE
		if want := len(frame) <= 64<<10; aliased != want {
			t.Fatalf("%d-byte frame: payloads alias the frame = %v, want %v", len(frame), aliased, want)
		}
	}
}

// TestStreamFrameAllocations holds the codec to its steady-state cost: the
// quick check for "did the wire path start allocating again".
func TestStreamFrameAllocations(t *testing.T) {
	tasks := mkTaskBatch(rand.New(rand.NewSource(7)), 16)
	results := make([]ResultMsg, 16)
	for i := range results {
		results[i] = ResultMsg{ID: int64(i), Value: 1000 * (i + 1), WorkerID: "mgr-0/w1"}
	}
	var frame []byte
	keep := func(b []byte) error { frame = append(frame[:0], b...); return nil }
	sink := func([]byte) error { return nil }

	only := NewStreamEncoder()
	if n := testing.AllocsPerRun(100, func() { _ = only.EncodeTasks(tasks, sink) }); n != 0 {
		t.Errorf("encoding a 16-task frame: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = only.EncodeResults(results, sink) }); n != 0 {
		t.Errorf("encoding a 16-result frame: %v allocations, want 0", n)
	}

	// Decoding: every run is the next frame of a stream, into one reused
	// destination, as a receive loop does it.
	enc, dec := NewStreamEncoder(), NewStreamDecoder()
	var taskDst []WireTask
	if n := testing.AllocsPerRun(100, func() {
		_ = enc.EncodeTasks(tasks, keep)
		if err := dec.DecodeFrame(frame, &taskDst); err != nil || len(taskDst) != 16 {
			t.Fatalf("decode: %v, %d tasks", err, len(taskDst))
		}
	}); n != 0 {
		t.Errorf("decoding a 16-task frame into a reused destination: %v allocations, want 0", n)
	}
	var resDst []ResultMsg
	if n := testing.AllocsPerRun(100, func() {
		_ = enc.EncodeResults(results, keep)
		if err := dec.DecodeFrame(frame, &resDst); err != nil || len(resDst) != 16 {
			t.Fatalf("decode: %v, %d results", err, len(resDst))
		}
	}); n > 16 {
		t.Errorf("a 16-result frame of small ints, encode + decode: %v allocations, want at most 1 per result", n)
	}
	var ids []int64
	relay := NewStreamEncoder()
	if n := testing.AllocsPerRun(100, func() {
		_ = enc.EncodeResults(results, keep)
		batch, err := dec.DecodeResultIDs(frame, &ids)
		if err != nil || len(ids) != 16 {
			t.Fatalf("relay: %v, %d ids", err, len(ids))
		}
		_ = relay.RelayResults(batch, sink)
	}); n != 0 {
		t.Errorf("relaying a 16-result frame: %v allocations, want 0", n)
	}
}
