package memo

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/serialize"
	"repro/internal/wal"
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
	path := filepath.Join(t.TempDir(), "run", "checkpoint")
	m1, err := NewWithCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := m1.Store(fmt.Sprintf("k%d", i), i*i); err != nil {
			t.Fatal(err)
		}
	}
	// One value longer than any line limit a scanner would impose: the file
	// has a single reader, so what opens must also load.
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
	if !ok || v != 49 {
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

// TestCheckpointCorruptTrailingLine: a final record whose checksum fails —
// a crash tore it after its length was written — is dropped at open, the
// records before it survive, and the next append is not swallowed by it.
func TestCheckpointCorruptTrailingLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "checkpoint")
	m1, err := NewWithCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	_ = m1.Store("good", "v")
	_ = m1.Store("last", "w")
	_ = m1.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF // a body byte of the final record
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	m2, err := NewWithCheckpoint(path)
	if err != nil {
		t.Fatalf("corrupt tail should not be fatal: %v", err)
	}
	if _, ok := m2.Lookup("good"); !ok || entries(m2) != 1 {
		t.Fatalf("loaded %d entries, want the good one alone", entries(m2))
	}
	_ = m2.Store("next", "x")
	_ = m2.Close()
	m3, err := NewWithCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m3.Close()
	if v, ok := m3.Lookup("next"); !ok || v != "x" || entries(m3) != 2 {
		t.Fatalf("append after the dropped tail: %v, %v (%d entries)", v, ok, entries(m3))
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

// Property: store-then-lookup always round-trips the value through the
// checkpoint file.
func TestQuickCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	n := 0
	prop := func(k string, v float64) bool {
		n++
		path := filepath.Join(dir, fmt.Sprintf("cp-%d", n))
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
		return ok && got == any(v)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointHealsTornTail is the crash-atomicity test for checkpoint
// writes: a record cut short by a crash mid-append must be truncated at open,
// so the NEXT append starts on a frame boundary instead of being read as the
// rest of the fragment and lost with it.
func TestCheckpointHealsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "checkpoint")
	m1, err := NewWithCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	_ = m1.Store("survivor", "v1")
	_ = m1.Close()
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the tail: the first half of a further record, exactly what a
	// crash mid-append leaves.
	torn, err := encodeRecord("torn", strings.Repeat("t", 64))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(whole, torn[:len(torn)/2]...), 0o644); err != nil {
		t.Fatal(err)
	}

	m2, err := NewWithCheckpoint(path)
	if err != nil {
		t.Fatalf("torn tail should heal, not fail: %v", err)
	}
	if _, ok := m2.Lookup("survivor"); !ok {
		t.Fatal("intact entry lost during heal")
	}
	if data, err := os.ReadFile(path); err != nil || !bytes.Equal(data, whole) {
		t.Fatalf("healed file is %d bytes, want the %d whole-record bytes (%v)", len(data), len(whole), err)
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

// TestCheckpointDamageBeforeIntactRecordFails: a corrupt record followed by
// one that checks out is damage, not a tear. Opening fails with the file and
// the offset, and truncates nothing, so the intact records stay on disk.
func TestCheckpointDamageBeforeIntactRecordFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "checkpoint")
	m, err := NewWithCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b", "c"} {
		_ = m.Store(k, k)
	}
	_ = m.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n := len(data) / 3  // three records of one size
	data[2*n-1] ^= 0xFF // the last byte of record "b"
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = NewWithCheckpoint(path)
	if err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), fmt.Sprintf("offset %d", n)) {
		t.Fatalf("opening a checkpoint damaged before an intact record: %v", err)
	}
	if after, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(after, data) {
		t.Fatalf("the damaged checkpoint changed on disk (%d → %d bytes, %v)", len(data), len(after), rerr)
	}
	if err := New().LoadCheckpoint(path); err == nil {
		t.Fatal("LoadCheckpoint accepted damage before an intact record")
	}
}

// TestCheckpointKeepsTypes: every value the payload codec encodes comes back
// from the file as the same Go type and value. A value the codec refuses is
// kept in memory only, and Store says so.
func TestCheckpointKeepsTypes(t *testing.T) {
	values := typedValues()
	path := filepath.Join(t.TempDir(), "checkpoint")
	m1, err := NewWithCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range values {
		if err := m1.Store(k, v); err != nil {
			t.Fatalf("%s: %v", k, err)
		}
	}
	type unregistered struct{ X int }
	for k, v := range map[string]any{"struct": unregistered{1}, "chan": make(chan int)} {
		if err := m1.Store(k, v); err == nil {
			t.Fatalf("%s: Store wrote a value the codec cannot encode", k)
		}
		if _, ok := m1.Lookup(k); !ok {
			t.Fatalf("%s: a refused value must still serve this process", k)
		}
	}
	_ = m1.Close()
	m2, err := NewWithCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := table(m2); !reflect.DeepEqual(got, values) {
		t.Fatalf("reloaded %#v,\nwant %#v", got, values)
	}
}

// TestCheckpointSkipsUndecodableRecord: a whole record whose value names a
// gob type this process never registered is skipped — one re-execution —
// and the records around it still load.
func TestCheckpointSkipsUndecodableRecord(t *testing.T) {
	type ghost struct{ X int }
	serialize.RegisterType(ghost{})
	record := func(key string, v any) []byte {
		t.Helper()
		frame, err := encodeRecord(key, v)
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
	// Rename the type inside the record, as if another build had written it,
	// and frame the body again: the record is whole, its value foreign.
	body := bytes.Clone(record("ghost", ghost{7})[8:])
	const name = "memo.ghost"
	i := bytes.Index(body, []byte(name))
	if i < 0 {
		t.Fatal("no gob type name in the encoded record")
	}
	body[i+len(name)-1] = 'x'
	foreign, err := wal.AppendFrame(nil, body)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "checkpoint")
	file := append(append(record("before", 1), foreign...), record("after", 2)...)
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := NewWithCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if got, want := table(m), map[string]any{"before": 1, "after": 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("loaded %v, want %v", got, want)
	}
}

// TestCheckpointWriteErrorSticks: after a failed write the file may end in a
// partial frame, so no later record may follow it: every later Store reports
// the first error, and the table still serves the values.
func TestCheckpointWriteErrorSticks(t *testing.T) {
	m, err := NewWithCheckpoint(filepath.Join(t.TempDir(), "checkpoint"))
	if err != nil {
		t.Fatal(err)
	}
	_ = m.cpFile.Close() // every write now fails
	first := m.Store("a", 1)
	if !errors.Is(first, os.ErrClosed) {
		t.Fatalf("Store over a dead file: %v", first)
	}
	if err := m.Store("b", 2); err != first {
		t.Fatalf("second Store: %v, want the first error %v", err, first)
	}
	if v, ok := m.Lookup("b"); !ok || v != 2 {
		t.Fatalf("lookup b = %v, %v", v, ok)
	}
}

// TestFreezeStopsCheckpointWrites: entries stored after Freeze stay in memory
// but never reach the file — the simulated-crash disk contract the WAL crash
// matrix depends on.
func TestFreezeStopsCheckpointWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "checkpoint")
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
// all distinct entries, and the checkpoint file gives every key back exactly
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
	path := filepath.Join(t.TempDir(), "checkpoint")
	w, err := NewWithCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if err := w.Store(k, fmt.Sprint("v", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
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
// slots alone — under the 48 bytes the key string itself would cost. The heap
// difference is signed: a heap that shrank across the fill (another test's
// garbage collected in between) is a disturbed reading, not a small table, so
// the fill is measured again, at most three times in all.
func TestTableKeepsNoKeyString(t *testing.T) {
	const n, tries = 100_000, 3
	fill := func() float64 {
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
		runtime.KeepAlive(m)
		return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / n
	}
	for try := 1; try <= tries; try++ {
		perEntry := fill()
		if perEntry < 0 {
			t.Logf("try %d: the heap shrank by %.1f B per entry across the fill; measuring again", try, -perEntry)
			continue
		}
		if perEntry >= 48 {
			t.Fatalf("%.1f live bytes per entry, want < 48", perEntry)
		}
		return
	}
	t.Fatalf("the heap shrank across the fill in all %d tries: no reading", tries)
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
