package memo

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/serialize"
)

func TestKeyComponents(t *testing.T) {
	key := func(app, bodyHash string, args ...any) string {
		t.Helper()
		p, err := serialize.EncodeArgs(args, nil)
		if err != nil {
			t.Fatal(err)
		}
		return KeyFromPayload(app, bodyHash, p)
	}
	k1 := key("f", "h1", 1)
	k2 := key("f", "h1", 2)
	k3 := key("f", "h2", 1)
	k4 := key("g", "h1", 1)
	if k1 == k2 || k1 == k3 || k1 == k4 {
		t.Fatalf("keys collide: %s %s %s %s", k1, k2, k3, k4)
	}
	if k5 := key("f", "h1", 1); k1 != k5 {
		t.Fatal("key not deterministic")
	}
}

func TestLookupStoreAndStats(t *testing.T) {
	m := New()
	if _, ok := m.Lookup("k"); ok {
		t.Fatal("empty table hit")
	}
	if err := m.Store("k", 42); err != nil {
		t.Fatal(err)
	}
	v, ok := m.Lookup("k")
	if !ok || v != 42 {
		t.Fatalf("lookup = %v, %v", v, ok)
	}
	hits, misses := m.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits, %d misses", hits, misses)
	}
	if entries(m) != 1 {
		t.Fatalf("len = %d", entries(m))
	}
}

func TestCheckpointPersistsAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run", "checkpoint.jsonl")
	m1, err := NewWithCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := m1.Store(fmt.Sprintf("k%d", i), float64(i*i)); err != nil {
			t.Fatal(err)
		}
	}
	// One value longer than any line limit a scanner would impose: the file
	// has a single parser, so what opens must also load.
	big := strings.Repeat("x", 17<<20)
	if err := m1.Store("big", big); err != nil {
		t.Fatal(err)
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart the program": a fresh memoizer on the same file sees all
	// completed results.
	m2, err := NewWithCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if entries(m2) != 11 {
		t.Fatalf("recovered %d entries, want 11", entries(m2))
	}
	v, ok := m2.Lookup("k7")
	if !ok || v.(float64) != 49 {
		t.Fatalf("k7 = %v, %v", v, ok)
	}
	m3 := New()
	if err := m3.LoadCheckpoint(path); err != nil {
		t.Fatalf("LoadCheckpoint of a file NewWithCheckpoint opened: %v", err)
	}
	if v, ok := m3.Lookup("big"); !ok || v.(string) != big {
		t.Fatalf("17 MiB value lost on LoadCheckpoint (found %v)", ok)
	}
}

func TestCheckpointCorruptTrailingLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	m1, err := NewWithCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	_ = m1.Store("good", "v")
	_ = m1.Close()
	// Simulate a crash mid-write.
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	_, _ = f.WriteString(`{"key":"half`)
	_ = f.Close()

	m2, err := NewWithCheckpoint(path)
	if err != nil {
		t.Fatalf("corrupt tail should not be fatal: %v", err)
	}
	defer m2.Close()
	if _, ok := m2.Lookup("good"); !ok {
		t.Fatal("good entry lost")
	}
	if entries(m2) != 1 {
		t.Fatalf("len = %d", entries(m2))
	}
}

func TestLoadCheckpointMissingFile(t *testing.T) {
	m := New()
	if err := m.LoadCheckpoint(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("missing file load returned nil")
	}
}

func TestSyncAndCloseWithoutCheckpoint(t *testing.T) {
	m := New()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentStoreLookup(t *testing.T) {
	m := New()
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", i%8)
			_ = m.Store(key, i)
			m.Lookup(key)
		}(i)
	}
	wg.Wait()
	if entries(m) != 8 {
		t.Fatalf("len = %d", entries(m))
	}
}

// Property: store-then-lookup always round-trips the JSON-compatible value
// through the checkpoint file.
func TestQuickCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	n := 0
	prop := func(k string, v float64) bool {
		n++
		path := filepath.Join(dir, fmt.Sprintf("cp-%d.jsonl", n))
		m1, err := NewWithCheckpoint(path)
		if err != nil {
			return false
		}
		key := "key-" + k
		if m1.Store(key, v) != nil {
			return false
		}
		_ = m1.Close()
		m2, err := NewWithCheckpoint(path)
		if err != nil {
			return false
		}
		defer m2.Close()
		got, ok := m2.Lookup(key)
		return ok && got.(float64) == v
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointHealsTornTail is the crash-atomicity test for checkpoint
// writes: a tail torn mid-append (no terminating newline) must be healed at
// open — rewritten via temp file + fsync + rename — so the NEXT append cannot
// merge with the fragment and lose both entries. Before healing existed, the
// store after reopen produced a line like `{"key":"half{"key":"new",...}`,
// silently destroying the new entry too.
func TestCheckpointHealsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	m1, err := NewWithCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	_ = m1.Store("survivor", "v1")
	_ = m1.Close()
	// Tear the tail: an unterminated fragment, exactly what a crash mid-
	// append leaves.
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	_, _ = f.WriteString(`{"key":"torn","value":`)
	_ = f.Close()

	m2, err := NewWithCheckpoint(path)
	if err != nil {
		t.Fatalf("torn tail should heal, not fail: %v", err)
	}
	if _, ok := m2.Lookup("survivor"); !ok {
		t.Fatal("intact entry lost during heal")
	}
	// The heal must leave no trace of the fragment on disk, so the next
	// append lands on a clean line boundary.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(data); n == 0 || data[n-1] != '\n' {
		t.Fatalf("healed file does not end in a newline: %q", data)
	}
	_ = m2.Store("after-heal", "v2")
	_ = m2.Close()

	m3, err := NewWithCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	if _, ok := m3.Lookup("survivor"); !ok {
		t.Fatal("survivor lost after post-heal append")
	}
	if v, ok := m3.Lookup("after-heal"); !ok || v != "v2" {
		t.Fatalf("post-heal append lost or corrupted: %v %v", v, ok)
	}
	if entries(m3) != 2 {
		t.Fatalf("len = %d, want 2", entries(m3))
	}
}

// TestCheckpointTornTailEvenIfParseable: a tail that happens to be valid JSON
// but lacks its newline is still torn — an append would merge with it. The
// heal must preserve its value AND restore the line discipline.
func TestCheckpointTornTailEvenIfParseable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	if err := os.WriteFile(path, []byte(`{"key":"k1","value":1}`+"\n"+`{"key":"k2","value":2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := NewWithCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if entries(m) != 2 {
		t.Fatalf("len = %d, want both entries loaded", entries(m))
	}
	_ = m.Store("k3", 3)
	_ = m.Close()

	m2, err := NewWithCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	for _, k := range []string{"k1", "k2", "k3"} {
		if _, ok := m2.Lookup(k); !ok {
			t.Fatalf("entry %q lost: the unterminated tail swallowed an append", k)
		}
	}
}

// TestFreezeStopsCheckpointWrites: entries stored after Freeze stay in memory
// but never reach the file — the simulated-crash disk contract the WAL crash
// matrix depends on.
func TestFreezeStopsCheckpointWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp.jsonl")
	m, err := NewWithCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	_ = m.Store("before", 1)
	m.Freeze()
	_ = m.Store("after", 2)
	if _, ok := m.Lookup("after"); !ok {
		t.Fatal("frozen store must still serve the live process from memory")
	}
	_ = m.Close()

	m2 := New()
	if err := m2.LoadCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	if _, ok := m2.Lookup("before"); !ok {
		t.Fatal("pre-freeze entry lost")
	}
	if _, ok := m2.Lookup("after"); ok {
		t.Fatal("post-freeze entry leaked to disk")
	}
}

// TestDigestKeysRoundTrip: keys of KeyFromPayload's shape and keys that only
// resemble it — wrong case, wrong length, no separator, empty prefix — are
// all distinct entries, and a checkpoint heal writes every key back exactly
// as it was stored.
func TestDigestKeysRoundTrip(t *testing.T) {
	p, err := serialize.EncodeArgs([]any{7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	canon := KeyFromPayload("app", "body", p)
	digest := canon[len(canon)-16:]
	keys := []string{
		canon,
		KeyFromPayload("app", "other-body", p),
		"app|body|" + strings.ToUpper(digest),
		"app|body|" + digest[1:],
		"app|body|0" + digest,
		"app|body" + digest,
		"|" + digest,
		digest,
		"app|body|0123456789abcdeg",
		"explicit-key",
	}
	m := New()
	for i, k := range keys {
		if err := m.Store(k, fmt.Sprint("v", i)); err != nil {
			t.Fatal(err)
		}
	}
	check := func(m *Memoizer) {
		t.Helper()
		if entries(m) != len(keys) {
			t.Fatalf("len = %d, want %d", entries(m), len(keys))
		}
		for i, k := range keys {
			if v, ok := m.Lookup(k); !ok || v != fmt.Sprint("v", i) {
				t.Fatalf("key %q: %v, %v", k, v, ok)
			}
		}
	}
	check(m)
	path := filepath.Join(t.TempDir(), "checkpoint.jsonl")
	if err := m.healCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	reloaded := New()
	if err := reloaded.LoadCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	check(reloaded)
}

// TestTableKeepsNoKeyString: an entry stored under a KeyFromPayload key holds
// no copy of the key's text, so a table of fresh results grows by its map
// slots alone — under the 48 bytes the key string itself would cost.
func TestTableKeepsNoKeyString(t *testing.T) {
	const n = 100_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := New()
	for i := 0; i < n; i++ {
		key := string(serialize.AppendDigest([]byte("memo_echo|0123456789abcdef|"), uint64(i)))
		if err := m.Store(key, true); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if perEntry := float64(after.HeapAlloc-before.HeapAlloc) / n; perEntry >= 48 {
		t.Fatalf("%.1f live bytes per entry, want < 48", perEntry)
	}
	runtime.KeepAlive(m)
}

// entries counts the memoized entries.
func entries(m *Memoizer) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := len(m.other)
	for _, byDigest := range m.digests {
		n += len(byDigest)
	}
	return n
}
