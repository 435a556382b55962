package memo

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/serialize"
)

// tierOneCheckpoint writes a checkpoint as the DFK does — one Store per
// completed task, a digest-shaped key among explicit ones — holding one value
// of each shape the JSON value codec produces, and returns the file.
func tierOneCheckpoint(tb testing.TB) []byte {
	p, err := serialize.EncodeArgs([]any{7}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	path := filepath.Join(tb.TempDir(), "checkpoint.jsonl")
	m, err := NewWithCheckpoint(path)
	if err != nil {
		tb.Fatal(err)
	}
	for _, e := range []entry{
		{KeyFromPayload("app", "body", p), "result-7"},
		{"n", 49.5},
		{"ok", true},
		{"nil", nil},
		{"list", []any{1.0, "<&>"}},
		{"obj", map[string]any{"x": false}},
	} {
		if err := m.Store(e.Key, e.Value); err != nil {
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

// FuzzLoadCheckpoint loads arbitrary bytes as a checkpoint file. Whatever the
// input: no panic, no allocation beyond a fixed multiple of the input (a
// single line may legitimately run to many MiB, so the bound scales with the
// bytes, it does not cap them), and what loads, written back through a fresh
// checkpointing Memoizer, loads again to the same keys and values. An
// iteration touches the disk, so give the minimizer a short budget
// (-fuzzminimizetime 2s): its default minute per new input would otherwise
// take a short run's whole time.
func FuzzLoadCheckpoint(f *testing.F) {
	cp := tierOneCheckpoint(f)
	f.Add(cp)
	f.Add(cp[:len(cp)-5])                             // torn tail
	f.Add(append([]byte(`{"key":"half`+"\n"), cp...)) // corrupt line
	f.Add([]byte(strings.Repeat("}\n", 4096)))        // the costliest bytes

	// One directory per fuzzing process, its two files rewritten by every
	// input: a fresh directory per input would cost more than the rest of
	// the iteration, and each iteration the minimizer spends matters.
	dir := f.TempDir()
	path, out := filepath.Join(dir, "in.jsonl"), filepath.Join(dir, "out.jsonl")
	f.Fuzz(func(t *testing.T, in []byte) {
		if err := os.WriteFile(path, in, 0o644); err != nil {
			t.Fatal(err)
		}
		loaded := New()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := loaded.LoadCheckpoint(path)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("loading an existing file: %v", err)
		}
		// The worst shape found is a file of 2-byte corrupt lines: each costs
		// encoding/json a SyntaxError and its message, 141 bytes per input
		// byte. Anything superlinear blows through 256 at once.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+256*len(in)); got > limit {
			t.Fatalf("loading a %d-byte checkpoint allocated %d bytes (limit %d)", len(in), got, limit)
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
			t.Fatalf("written back and reloaded: %v, want %v", got, want)
		}
	})
}
