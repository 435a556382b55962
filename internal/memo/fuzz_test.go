package memo

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/app"
	"repro/internal/serialize"
)

// typedValues holds one value of each shape a restarted run must get back
// with its Go type — a text format would turn the integers into float64,
// the bytes into base64 and the string map and registered struct into
// map[string]any. One key has KeyFromPayload's shape, as the DFK's keys do.
func typedValues() map[string]any {
	p, err := serialize.EncodeArgs([]any{7}, nil)
	if err != nil {
		panic(err)
	}
	return map[string]any{
		KeyFromPayload("app", "body", p): 49,
		"int64":                          int64(1<<62 + 1),
		"bytes":                          []byte{1, 2, 3},
		"strings":                        map[string]string{"k": "v"},
		"bash":                           app.BashResult{ExitCode: 3, Stdout: "out.txt"},
		"float":                          49.5,
		"text":                           "<&>",
		"ok":                             true,
		"nil":                            nil,
		"list":                           []any{1, "x", 2.5},
		"obj":                            map[string]any{"x": false},
	}
}

// tierOneCheckpoint writes a checkpoint as the DFK does — one Store per
// completed task, in key order so the file is the same every run — holding
// typedValues, and returns the file.
func tierOneCheckpoint(tb testing.TB) []byte {
	path := filepath.Join(tb.TempDir(), "checkpoint")
	m, err := NewWithCheckpoint(path)
	if err != nil {
		tb.Fatal(err)
	}
	values := typedValues()
	keys := make([]string, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		if err := m.Store(k, values[k]); err != nil {
			tb.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// table copies a memoizer's entries into a plain map, keyed as stored.
func table(m *Memoizer) map[string]any {
	out := make(map[string]any)
	m.mu.RLock()
	defer m.mu.RUnlock()
	_ = m.eachLocked(func(k string, v any) error { out[k] = v; return nil })
	return out
}

// eachLocked calls fn on every entry, with the key it was stored under,
// until fn fails.
func (m *Memoizer) eachLocked(fn func(key string, v any) error) error {
	for prefix, byDigest := range m.digests {
		for digest, v := range byDigest {
			if err := fn(string(serialize.AppendDigest([]byte(prefix+"|"), digest)), v); err != nil {
				return err
			}
		}
	}
	for key, v := range m.other {
		if err := fn(key, v); err != nil {
			return err
		}
	}
	return nil
}

// FuzzLoadCheckpoint loads arbitrary bytes as a checkpoint file, under
// FuzzWALReplay's contract, since the file is WAL frames. Whatever the input:
// no panic; no allocation beyond a fixed multiple of the input (a single
// record may legitimately run to many MiB, so the bound scales with the
// bytes, it does not cap them); an error is allowed — damage before an
// intact record is one — and what loads, written back through a fresh
// checkpointing Memoizer, loads again to the same keys, values and types.
// An iteration touches the disk, so give the minimizer a short budget
// (-fuzzminimizetime 2s): its default minute per new input would otherwise
// take a short run's whole time.
func FuzzLoadCheckpoint(f *testing.F) {
	cp := tierOneCheckpoint(f)
	damaged := bytes.Clone(cp)
	damaged[8+binary.BigEndian.Uint32(cp)-1] ^= 0xFF // the first record's last byte
	f.Add(cp)
	f.Add(cp[:len(cp)-5]) // torn tail
	f.Add(damaged)        // a checksum-damaged record before intact ones
	// The JSON-lines format the checkpoint had before frames.
	f.Add([]byte(`{"key":"n","value":49}` + "\n" + `{"key":"s","value":"x"}` + "\n"))

	// One directory per fuzzing process, its two files rewritten by every
	// input: a fresh directory per input would cost more than the rest of
	// the iteration, and each iteration the minimizer spends matters.
	dir := f.TempDir()
	path, out := filepath.Join(dir, "in"), filepath.Join(dir, "out")
	f.Fuzz(func(t *testing.T, in []byte) {
		if err := os.WriteFile(path, in, 0o644); err != nil {
			t.Fatal(err)
		}
		loaded := New()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := loaded.LoadCheckpoint(path)
		runtime.ReadMemStats(&after)
		// The costliest bytes measured are a record holding a list of gob-
		// fallback scalars (uint, int8): gob builds a decoder for each
		// 14-byte element, 1.4 KB, so 103 bytes per input byte. The codec's
		// own shapes cost at most 33 (a list of empty maps), the framing
		// about one (the file read).
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+128*len(in)); got > limit {
			t.Fatalf("loading a %d-byte checkpoint allocated %d bytes (limit %d)", len(in), got, limit)
		}
		if err != nil {
			return
		}
		want := table(loaded)

		if err := os.Remove(out); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		w, err := NewWithCheckpoint(out)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range want {
			if err := w.Store(k, v); err != nil {
				t.Fatal(err)
			}
		}
		// Every Store has already reached the file; closing it directly skips
		// the fsync in Close, which would cost more than the rest of the
		// iteration and buys nothing without a crash.
		if err := w.cpFile.Close(); err != nil {
			t.Fatal(err)
		}
		again := New()
		if err := again.LoadCheckpoint(out); err != nil {
			t.Fatal(err)
		}
		if got := table(again); !reflect.DeepEqual(got, want) {
			t.Fatalf("written back and reloaded: %#v, want %#v", got, want)
		}
	})
}
