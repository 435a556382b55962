package serialize

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"testing"
)

// gobEncode is the pre-streaming wire format — every message its own
// self-describing gob stream — which left production code and lives on here as
// BenchmarkStreamFrame's comparison arm.
func gobEncode(b *testing.B, v any) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// benchBatch builds one batch of representative tasks: a few positional
// args of mixed type plus kwargs, the shape the paper's workloads submit.
func benchBatch(n int) ([]TaskMsg, [][]any, []map[string]any) {
	msgs := make([]TaskMsg, n)
	argLists := make([][]any, n)
	kwLists := make([]map[string]any, n)
	for i := range msgs {
		argLists[i] = []any{i, fmt.Sprintf("input-%04d", i), 2.5, []string{"a", "b", "c"}}
		kwLists[i] = map[string]any{"threads": 4, "mode": "fast"}
		msgs[i] = TaskMsg{ID: int64(i), App: "bench-app", Priority: 1,
			Args: argLists[i], Kwargs: kwLists[i]}
	}
	return msgs, argLists, kwLists
}

// BenchmarkSerializeRoundTrip measures the full serialization path of one
// 64-task batch from submission to executable arguments on a worker,
// including the memoization hash — everything the serialization layer does
// for a task, end to end: arguments encoded exactly once, hash taken over the
// cached bytes, envelopes re-framed hop to hop (client → interchange →
// manager) as numbered stream frames, arguments decoded once at the worker.
func BenchmarkSerializeRoundTrip(b *testing.B) {
	const batchSize = 64

	b.Run("encode-once-streaming", func(b *testing.B) {
		clientEnc := NewStreamEncoder()
		ixDec := NewStreamDecoder()
		ixEnc := NewStreamEncoder()
		mgrDec := NewStreamDecoder()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			msgs, argLists, kwLists := benchBatch(batchSize)
			// Submit side: encode once, hash the bytes.
			wires := make([]WireTask, len(msgs))
			for j := range msgs {
				p, err := EncodeArgs(argLists[j], kwLists[j])
				if err != nil {
					b.Fatal(err)
				}
				_ = p.ArgsHash()
				msgs[j].AttachPayload(p)
				w, err := msgs[j].Wire()
				if err != nil {
					b.Fatal(err)
				}
				wires[j] = w
			}
			// Wire: same two hops, but envelopes ride persistent streams
			// and the argument bytes pass through untouched.
			var hop1 []byte
			if err := clientEnc.EncodeFrame(wires, func(f []byte) error {
				hop1 = append(hop1[:0], f...)
				return nil
			}); err != nil {
				b.Fatal(err)
			}
			var atIx []WireTask
			if err := ixDec.DecodeFrame(hop1, &atIx); err != nil {
				b.Fatal(err)
			}
			var hop2 []byte
			if err := ixEnc.EncodeFrame(atIx, func(f []byte) error {
				hop2 = append(hop2[:0], f...)
				return nil
			}); err != nil {
				b.Fatal(err)
			}
			var atMgr []WireTask
			if err := mgrDec.DecodeFrame(hop2, &atMgr); err != nil {
				b.Fatal(err)
			}
			for j := range atMgr {
				if _, err := atMgr[j].Task(); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkPayloadHash is the encode-once equivalent: EncodeArgs plus a
// hash sweep over the cached bytes (what the DFK submit path actually pays,
// since the same payload then serves the wire and the deep copy for free).
func BenchmarkPayloadHash(b *testing.B) {
	args := []any{7, "input-0007", 2.5, []string{"a", "b", "c"}}
	kw := map[string]any{"threads": 4, "mode": "fast"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := EncodeArgs(args, kw)
		if err != nil {
			b.Fatal(err)
		}
		_ = p.ArgsHash()
	}
}

// BenchmarkDeepCopy compares the two defensive-copy paths an in-process
// executor can take: encoding and decoding a direct submission's arguments
// (what the threadpool worker does for a task that carries no payload)
// versus a single decode of the encode-once payload.
func BenchmarkDeepCopy(b *testing.B) {
	args := []any{7, "input-0007", 2.5, []string{"a", "b", "c"}}
	kw := map[string]any{"threads": 4, "mode": "fast"}
	b.Run("encode-and-decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p, err := EncodeArgs(args, kw)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := p.DecodeArgs(); err != nil {
				b.Fatal(err)
			}
			p.Release()
		}
	})
	b.Run("decode-from-payload", func(b *testing.B) {
		p, err := EncodeArgs(args, kw)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := p.DecodeArgs(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStreamFrame isolates the codec itself on a result batch: a
// numbered stream frame versus a self-describing gob frame per message.
func BenchmarkStreamFrame(b *testing.B) {
	batch := make([]ResultMsg, 16)
	for i := range batch {
		batch[i] = ResultMsg{ID: int64(i), Value: i * 3, WorkerID: "w0"}
	}
	sink := func([]byte) error { return nil }
	b.Run("streaming", func(b *testing.B) {
		enc := NewStreamEncoder()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := enc.EncodeResults(batch, sink); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("oneshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			gobEncode(b, batch)
		}
	})
}
