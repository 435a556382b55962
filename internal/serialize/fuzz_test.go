package serialize

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"
)

// FuzzDecodeFrame throws arbitrary bytes at every frame decoder. Each input
// is tried as it is and again with its checksum field corrected, so mutations
// of the seeds get past the integrity gate and reach the parsers. Whatever
// the input: no panic, and no allocation beyond a small multiple of the input
// length (every claimed count is bounded by the bytes that remain). Whatever
// decodes must re-encode to a frame that decodes and re-encodes to itself —
// for a frame this package produced that is byte equality with the input; an
// arbitrary one may spell a varint the long way or carry an unsorted map, and
// is normalised once.
func FuzzDecodeFrame(f *testing.F) {
	r := rand.New(rand.NewSource(8))
	var seeds [][]byte
	keep := collect(&seeds)
	_ = NewStreamEncoder().EncodeTasks(mkTaskBatch(r, 3), keep)
	_ = NewStreamEncoder().EncodeTasks(nil, keep)
	_ = NewStreamEncoder().EncodeResults(mkResultBatch(r, 3), keep)
	_ = NewStreamEncoder().EncodeResults([]ResultMsg{
		{ID: 1, Value: []any{"s", 2.5, nil, true, int64(4), []byte{1}, []string{"a"}, []int{1}, []float64{1}}},
		{ID: 2, Value: map[string]any{"k": map[string]string{"a": "b"}}, Err: "e", WorkerID: "w"},
	}, keep)
	seeds = append(seeds, EncodeIDs([]int64{1, -2, 1 << 40}), EncodeIDs(nil),
		EncodeWire(WireTask{ID: 5, App: "app", Priority: 2, Tenant: "t", Weight: 3, P: []byte{1, 2, 3}}),
		EncodeResult(ResultMsg{ID: 6, Value: "v", WorkerID: "w"}))
	// Embedded gob values whose first message length is malformed or claims
	// far more than the frame holds: gob allocates for the claim before
	// reading (this fuzzer found both), so the value codec checks it first.
	for _, blob := range [][]byte{{0x80}, {0xfc, 0x7f, 0xff, 0xff, 0xff}} {
		w := beginFrame(nil, frameOneResult, 0)
		w.varint(1)
		w.byte1(vGob)
		w.uvarint(uint64(len(blob)))
		w.b = append(w.b, blob...)
		w.str("")
		w.str("")
		seeds = append(seeds, sealFrame(w.b))
	}
	for _, s := range seeds {
		f.Add(s)
		f.Add(s[:len(s)/2])
		f.Add(s[:len(s)-1])
	}

	f.Fuzz(func(t *testing.T, frame []byte) {
		fuzzOneFrame(t, frame)
		if len(frame) >= frameHeaderLen {
			fixed := bytes.Clone(frame)
			sealFrame(fixed)
			fuzzOneFrame(t, fixed)
		}
	})
}

func fuzzOneFrame(t *testing.T, frame []byte) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var tasks []WireTask
	tasksErr := NewStreamDecoder().DecodeFrame(frame, &tasks)
	var results []ResultMsg
	resultsErr := NewStreamDecoder().DecodeFrame(frame, &results)
	var relayIDs []int64
	relayed, relayErr := NewStreamDecoder().DecodeResultIDs(frame, &relayIDs)
	ids, idsErr := DecodeIDs(frame)
	oneTask, oneTaskErr := DecodeWire(frame)
	oneResult, oneResultErr := DecodeResult(frame)
	runtime.ReadMemStats(&after)
	// 64 KiB covers the fixed costs (six decoders, an embedded gob decoder's
	// set-up); the multiple covers the widest legitimate expansion, a map
	// pre-sized for one entry per two input bytes.
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+64*len(frame)); got > limit {
		t.Fatalf("decoding a %d-byte frame allocated %d bytes (limit %d)", len(frame), got, limit)
	}

	// Re-encoding happens on fresh streams, so at frame 0, where the decoders
	// above joined; body strips the header, frameOf puts one back.
	body := func(encode func(send func([]byte) error) error) []byte {
		var out []byte
		if err := encode(func(b []byte) error { out = bytes.Clone(b[frameHeaderLen:]); return nil }); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		return out
	}
	frameOf := func(tag byte, body []byte) []byte {
		w := beginFrame(nil, tag, 1)
		w.b = append(w.b, body...)
		return sealFrame(w.b)
	}
	taskBody := func(batch []WireTask) []byte {
		return body(func(send func([]byte) error) error { return NewStreamEncoder().EncodeTasks(batch, send) })
	}
	resultBody := func(batch []ResultMsg) []byte {
		return body(func(send func([]byte) error) error { return NewStreamEncoder().EncodeResults(batch, send) })
	}
	if tasksErr == nil {
		first := taskBody(tasks)
		var again []WireTask
		if err := NewStreamDecoder().DecodeFrame(frameOf(frameTasks, first), &again); err != nil {
			t.Fatalf("tasks: re-encoded frame does not decode: %v", err)
		}
		if second := taskBody(again); !bytes.Equal(first, second) {
			t.Fatalf("tasks: re-encoding is not stable:\n%x\n%x", first, second)
		}
	}
	// The id-column decode reads less than the full decode (a broker trusts
	// the checksum for the envelopes it does not open), so it may accept a
	// frame the full decode refuses — never the other way round.
	if resultsErr == nil {
		if relayErr != nil {
			t.Fatalf("results: the frame decodes, but its id column does not: %v", relayErr)
		}
		if len(relayIDs) != len(results) {
			t.Fatalf("results: %d ids for %d results", len(relayIDs), len(results))
		}
		for i := range results {
			if relayIDs[i] != results[i].ID {
				t.Fatalf("results: id column %v disagrees with %+v", relayIDs, results)
			}
		}
		if !bytes.HasSuffix(frame, relayed) {
			t.Fatal("results: the relayed batch is not the frame's tail")
		}
		if fastPathOnly(results) {
			first := resultBody(results)
			var again []ResultMsg
			if err := NewStreamDecoder().DecodeFrame(frameOf(frameResults, first), &again); err != nil {
				t.Fatalf("results: re-encoded frame does not decode: %v", err)
			}
			if second := resultBody(again); !bytes.Equal(first, second) {
				t.Fatalf("results: re-encoding is not stable:\n%x\n%x", first, second)
			}
		}
	}
	if idsErr == nil {
		first := EncodeIDs(ids)
		again, err := DecodeIDs(first)
		if err != nil || !bytes.Equal(first, EncodeIDs(again)) {
			t.Fatalf("ids: re-encoding is not stable: %v", err)
		}
	}
	if oneTaskErr == nil {
		first := EncodeWire(oneTask)
		again, err := DecodeWire(first)
		if err != nil || !bytes.Equal(first, EncodeWire(again)) {
			t.Fatalf("one task: re-encoding is not stable: %v", err)
		}
	}
	if oneResultErr == nil && fastPathOnly([]ResultMsg{oneResult}) {
		first := EncodeResult(oneResult)
		again, err := DecodeResult(first)
		if err != nil || !bytes.Equal(first, EncodeResult(again)) {
			t.Fatalf("one result: re-encoding is not stable: %v", err)
		}
	}
}

// fastPathOnly reports whether every result value is built from the value
// codec's own shapes. An embedded gob value is excluded from the re-encoding
// check: gob writes maps in iteration order, so its bytes are not a function
// of the value.
func fastPathOnly(results []ResultMsg) bool {
	var ok func(v any) bool
	ok = func(v any) bool {
		switch t := v.(type) {
		case nil, bool, int, int64, float64, string, []byte, []string, []int, []float64, map[string]string:
			return true
		case []any:
			for _, e := range t {
				if !ok(e) {
					return false
				}
			}
			return true
		case map[string]any:
			for _, e := range t {
				if !ok(e) {
					return false
				}
			}
			return true
		}
		return false
	}
	for _, r := range results {
		if !ok(r.Value) {
			return false
		}
	}
	return true
}
