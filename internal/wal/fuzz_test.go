package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"runtime"
	"slices"
	"testing"
)

// frameOf frames one record body as the log writes it.
func frameOf(body []byte) []byte {
	b := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	b = binary.BigEndian.AppendUint32(b, crc32.Checksum(body, crcTable))
	return append(b, body...)
}

// snapshotOf encodes a frontier as compaction does: one snapshot frame with
// the next key, the terminal total and every live task in key order.
func snapshotOf(fr *Frontier) []byte {
	keys := make([]int64, 0, len(fr.Live))
	for k := range fr.Live {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b := []byte{recSnapshot}
	b = appendUvarint(b, uint64(fr.NextKey))
	b = appendUvarint(b, uint64(fr.TerminalTotal()))
	b = appendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = appendUvarint(b, uint64(fr.Live[k].Launches))
		b = appendBytes(b, appendSubmitBody(nil, fr.Live[k]))
	}
	return frameOf(b)
}

// tierOneSegments writes the logs this package's tests write — a round trip,
// a rotated log, a compacted one, terminals carrying values — and returns
// every segment file.
func tierOneSegments(tb testing.TB) [][]byte {
	var segs [][]byte
	write := func(opts Options, appends func(l *Log)) {
		dir := tb.TempDir()
		l, err := Open(dir, opts)
		if err != nil {
			tb.Fatal(err)
		}
		appends(l)
		if err := l.Close(); err != nil {
			tb.Fatal(err)
		}
		paths, _, err := listSegments(dir)
		if err != nil {
			tb.Fatal(err)
		}
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				tb.Fatal(err)
			}
			if len(data) > 0 {
				segs = append(segs, data)
			}
		}
	}
	write(fastOpts(), func(l *Log) {
		k1, _ := l.Submit("appA", "memo-a", "tenantX", 3, 2, 1, []byte("payload-1"))
		k2, _ := l.Submit("appB", "", "", 0, 0, 0, []byte("payload-2"))
		_, _ = l.Submit("appA", "memo-c", "", -5, 1, 2, nil)
		_ = l.Launch(k1, 1)
		_ = l.Retry(k1, 2)
		_ = l.Terminal(k2, OutcomeDone, "digest-2")
	})
	rotating := fastOpts()
	rotating.SegmentBytes = 256
	write(rotating, func(l *Log) {
		for i := 0; i < 12; i++ {
			_, _ = l.Submit("rot", "", "", 0, 0, 0, bytes.Repeat([]byte("x"), 64))
			_ = l.Sync()
		}
	})
	write(fastOpts(), func(l *Log) {
		for i := 0; i < 6; i++ {
			k, _ := l.Submit("cmp", "memo", "ten", i, 1, 2, []byte{byte(i)})
			_ = l.Launch(k, 1)
			if i%2 == 0 {
				_ = l.Terminal(k, OutcomeMemoized, "memo")
			}
		}
		_ = l.Compact()
		_, _ = l.Submit("cmp", "", "", 0, 0, 0, nil)
	})
	write(fastOpts(), func(l *Log) {
		values := []any{42, "forty-two", []byte{4, 2}, map[string]any{"n": 42}}
		for _, v := range values {
			k, _ := l.Submit("val", "", "", 0, 0, 0, nil)
			_ = l.Terminal(k, OutcomeDone, v)
		}
		k, _ := l.Submit("val", "", "", 0, 0, 0, nil)
		_ = l.Terminal(k, OutcomeFailed, nil)
		k, _ = l.Submit("val", "", "", 0, 0, 0, nil)
		_ = l.Terminal(k, OutcomeDone, make(chan int)) // refused: no value
	})
	return segs
}

// FuzzWALReplay replays arbitrary bytes as a segment. Whatever the input: no
// panic, no allocation beyond a small multiple of the input (every count is
// bounded by the bytes left), and whatever decodes re-encodes stably — the
// frontier written as a snapshot replays to the same frontier and encodes to
// the same bytes again.
func FuzzWALReplay(f *testing.F) {
	for _, seg := range tierOneSegments(f) {
		f.Add(seg)
		f.Add(seg[:len(seg)/2])
		f.Add(seg[:len(seg)-1])
	}
	// A CRC-valid 15-byte snapshot frame claiming 2^26 live tasks.
	f.Add(frameOf([]byte{recSnapshot, 1, 0, 0x80, 0x80, 0x80, 0x20}))

	f.Fuzz(func(t *testing.T, in []byte) {
		fr := newFrontier()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := WalkFrames(in, fr.apply)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+64*len(in)); got > limit {
			t.Fatalf("replaying a %d-byte segment allocated %d bytes (limit %d)", len(in), got, limit)
		}
		if err != nil {
			return
		}
		snap := snapshotOf(fr)
		again := newFrontier()
		if _, torn, err := WalkFrames(snap, again.apply); err != nil || torn {
			t.Fatalf("the re-encoded frontier does not replay: torn=%v, %v", torn, err)
		}
		equalLiveSets(t, fr, again)
		if !bytes.Equal(snapshotOf(again), snap) {
			t.Fatal("the frontier re-encodes differently on its second round trip")
		}
	})
}
