package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/serialize"
)

// fastOpts keeps group commit latency negligible in tests.
func fastOpts() Options {
	return Options{SyncInterval: time.Millisecond, CompactEvery: -1}
}

// equalFrontiers compares everything replay can observe, including torn-tail
// and record counts, so the flip tests can assert "never silently identical".
func equalFrontiers(a, b *Frontier) bool {
	if a.NextKey != b.NextKey || a.Folded != b.Folded || a.Records != b.Records || a.Torn != b.Torn {
		return false
	}
	if len(a.Live) != len(b.Live) || len(a.Terminals) != len(b.Terminals) {
		return false
	}
	for k, ai := range a.Live {
		bi := b.Live[k]
		if bi == nil || !equalInfo(ai, bi) {
			return false
		}
	}
	for k, at := range a.Terminals {
		bt, ok := b.Terminals[k]
		if !ok || at.Outcome != bt.Outcome || !bytes.Equal(at.Value, bt.Value) {
			return false
		}
	}
	return true
}

// encoded is v as a terminal record carries it.
func encoded(t testing.TB, v any) []byte {
	t.Helper()
	p, err := serialize.EncodeArgs([]any{v}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	return append([]byte(nil), p.Bytes()...)
}

func equalInfo(a, b *TaskInfo) bool {
	return a.Key == b.Key && a.App == b.App && a.MemoKey == b.MemoKey &&
		a.Tenant == b.Tenant && a.Priority == b.Priority && a.Weight == b.Weight &&
		a.MaxRetries == b.MaxRetries && a.Launches == b.Launches &&
		bytes.Equal(a.Payload, b.Payload)
}

// equalLiveSets is the compaction-equivalence relation: a snapshot preserves
// the live frontier, the key sequence, and the terminal total, but folds
// individual terminal records into a count.
func equalLiveSets(t *testing.T, a, b *Frontier) {
	t.Helper()
	if a.NextKey != b.NextKey {
		t.Fatalf("NextKey %d != %d", a.NextKey, b.NextKey)
	}
	if a.TerminalTotal() != b.TerminalTotal() {
		t.Fatalf("TerminalTotal %d != %d", a.TerminalTotal(), b.TerminalTotal())
	}
	if len(a.Live) != len(b.Live) {
		t.Fatalf("live %d != %d", len(a.Live), len(b.Live))
	}
	for k, ai := range a.Live {
		bi := b.Live[k]
		if bi == nil {
			t.Fatalf("task %d missing from second frontier", k)
		}
		if !equalInfo(ai, bi) {
			t.Fatalf("task %d differs: %+v vs %+v", k, ai, bi)
		}
	}
}

func TestWALRoundTripAndReopen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if l.Recovered() != nil {
		t.Fatal("fresh directory should have nothing to recover")
	}
	k1, err := l.Submit("appA", "memo-a", "tenantX", 3, 2, 1, []byte("payload-1"))
	if err != nil {
		t.Fatal(err)
	}
	k2, _ := l.Submit("appB", "", "", 0, 0, 0, []byte("payload-2"))
	k3, _ := l.Submit("appA", "memo-c", "", -5, 1, 2, nil)
	if k1 != 1 || k2 != 2 || k3 != 3 {
		t.Fatalf("keys = %d,%d,%d; want 1,2,3 (key 0 is reserved)", k1, k2, k3)
	}
	if err := l.Launch(k1, 1); err != nil {
		t.Fatal(err)
	}
	if err := l.Retry(k1, 2); err != nil {
		t.Fatal(err)
	}
	if err := l.Terminal(k2, OutcomeDone, "digest-2"); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	fr, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Records != 6 || fr.Torn != 0 {
		t.Fatalf("Records=%d Torn=%d; want 6, 0", fr.Records, fr.Torn)
	}
	if fr.NextKey != 4 {
		t.Fatalf("NextKey=%d; want 4", fr.NextKey)
	}
	if len(fr.Live) != 2 {
		t.Fatalf("live=%d; want 2", len(fr.Live))
	}
	i1 := fr.Live[k1]
	if i1 == nil || i1.App != "appA" || i1.MemoKey != "memo-a" || i1.Tenant != "tenantX" ||
		i1.Priority != 3 || i1.Weight != 2 || i1.MaxRetries != 1 ||
		i1.Launches != 2 || string(i1.Payload) != "payload-1" {
		t.Fatalf("task 1 replayed wrong: %+v", i1)
	}
	if i3 := fr.Live[k3]; i3 == nil || i3.Priority != -5 || i3.Launches != 0 {
		t.Fatalf("task 3 replayed wrong: %+v", i3)
	}
	term, ok := fr.Terminals[k2]
	if !ok || term.Outcome != OutcomeDone || !bytes.Equal(term.Value, encoded(t, "digest-2")) {
		t.Fatalf("task 2 terminal replayed wrong: %+v", term)
	}
	if term.Info == nil || string(term.Info.Payload) != "payload-2" {
		t.Fatalf("terminal should carry its submit info: %+v", term.Info)
	}

	// Reopen: the replayed frontier is surfaced and the key sequence resumes.
	l2, err := Open(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	rec := l2.Recovered()
	if rec == nil || len(rec.Live) != 2 || rec.NextKey != 4 {
		t.Fatalf("reopen lost the frontier: %+v", rec)
	}
	k4, err := l2.Submit("appC", "", "", 0, 0, 0, []byte("p4"))
	if err != nil {
		t.Fatal(err)
	}
	if k4 != 4 {
		t.Fatalf("key after reopen = %d; want 4", k4)
	}
}

func TestWALSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	opts := fastOpts()
	opts.SegmentBytes = 256
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 64)
	const n = 40
	for i := 0; i < n; i++ {
		if _, err := l.Submit("rot", "", "", 0, 0, 0, payload); err != nil {
			t.Fatal(err)
		}
		// Flush per record so segment growth is observed against the cap.
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	paths, _, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(paths))
	}
	for _, p := range paths {
		if fi, err := os.Stat(p); err == nil && fi.Size() > 256+512 {
			t.Fatalf("segment %s is %d bytes, far over the 256-byte cap", p, fi.Size())
		}
	}
	fr, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Live) != n || fr.Records != n || fr.NextKey != n+1 {
		t.Fatalf("rotated replay: live=%d records=%d next=%d; want %d, %d, %d",
			len(fr.Live), fr.Records, fr.NextKey, n, n, n+1)
	}
	for k, info := range fr.Live {
		if !bytes.Equal(info.Payload, payload) {
			t.Fatalf("task %d payload corrupted across rotation", k)
		}
	}
}

// TestWALChecksumDetectsEveryByteFlip mirrors the serialize package's
// TestFrameChecksumDetectsEveryByteFlip: no single-byte corruption anywhere in
// a segment may replay to the pristine frontier as if nothing happened — it
// must either fail loudly or visibly lose records (torn tail).
func TestWALChecksumDetectsEveryByteFlip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	k1, _ := l.Submit("flip", "memo-1", "ten", 1, 1, 1, []byte("payload-one"))
	k2, _ := l.Submit("flip", "", "", 0, 0, 0, []byte("payload-two"))
	_ = l.Launch(k1, 1)
	_ = l.Terminal(k2, OutcomeDone, "digest")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	paths, _, err := listSegments(dir)
	if err != nil || len(paths) != 1 {
		t.Fatalf("want one segment, got %d (%v)", len(paths), err)
	}
	pristineData, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	pristine, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if pristine.Records != 4 {
		t.Fatalf("pristine Records=%d; want 4", pristine.Records)
	}

	flipDir := t.TempDir()
	flipPath := filepath.Join(flipDir, filepath.Base(paths[0]))
	for i := range pristineData {
		corrupt := append([]byte(nil), pristineData...)
		corrupt[i] ^= 0xA5
		if err := os.WriteFile(flipPath, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		fr, err := Replay(flipDir)
		if err != nil {
			continue // loud failure: detected
		}
		if equalFrontiers(fr, pristine) {
			t.Fatalf("flipping byte %d went completely undetected", i)
		}
	}
}

func TestWALTruncatedTailReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Submit("trunc", "", "", 0, 0, 0, []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	paths, _, _ := listSegments(dir)
	full, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}

	// Every truncation length replays without error; a cut mid-record loses
	// exactly the torn tail, never anything before it.
	cutDir := t.TempDir()
	cutPath := filepath.Join(cutDir, filepath.Base(paths[0]))
	for n := len(full) - 1; n >= 0; n-- {
		if err := os.WriteFile(cutPath, full[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		fr, err := Replay(cutDir)
		if err != nil {
			t.Fatalf("truncation to %d bytes errored: %v", n, err)
		}
		if fr.Records > 5 || int64(len(fr.Live)) != fr.Records {
			t.Fatalf("truncation to %d bytes replayed records=%d live=%d", n, fr.Records, len(fr.Live))
		}
		if n < len(full) && fr.Records == 5 {
			t.Fatalf("truncation to %d bytes claims all 5 records survived", n)
		}
	}

	// Open truncates the torn tail and keeps appending; the damaged record
	// never resurfaces.
	if err := os.WriteFile(cutPath, full[:len(full)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(cutDir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	rec := l2.Recovered()
	if rec == nil || rec.Torn != 1 || rec.Records != 4 {
		t.Fatalf("reopen after tear: %+v", rec)
	}
	if _, err := l2.Submit("after-tear", "", "", 0, 0, 0, nil); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	fr, err := Replay(cutDir)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Records != 5 || fr.Torn != 0 || len(fr.Live) != 5 {
		t.Fatalf("post-tear append replay: records=%d torn=%d live=%d", fr.Records, fr.Torn, len(fr.Live))
	}
}

func TestWALCompactionEquivalence(t *testing.T) {
	dir := t.TempDir()
	opts := fastOpts()
	opts.SegmentBytes = 512 // force multi-segment history
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	var keys []int64
	for i := 0; i < 20; i++ {
		k, err := l.Submit("cmp", "memo", "ten", i, 1, 2, bytes.Repeat([]byte{byte(i)}, 48))
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
		_ = l.Launch(k, 1)
		if i%3 == 0 {
			_ = l.Retry(k, 2)
		}
		_ = l.Sync()
	}
	for i := 0; i < 12; i++ {
		if err := l.Terminal(keys[i], OutcomeDone, "d"); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	before, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Live) != 8 || before.TerminalTotal() != 12 {
		t.Fatalf("precondition: live=%d terminals=%d", len(before.Live), before.TerminalTotal())
	}
	for k, term := range before.Terminals {
		if !bytes.Equal(term.Value, encoded(t, "d")) {
			t.Fatalf("task %d's terminal carries %q, want the encoded value", k, term.Value)
		}
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	after, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	equalLiveSets(t, before, after)
	if after.Folded != 12 || len(after.Terminals) != 0 {
		t.Fatalf("compaction should fold terminals: folded=%d terminals=%d", after.Folded, len(after.Terminals))
	}
	paths, _, _ := listSegments(dir)
	if len(paths) != 1 {
		t.Fatalf("compaction left %d segments; want 1", len(paths))
	}

	// Appends continue after compaction, and a second replay (crash after
	// compaction) still agrees.
	k, err := l.Submit("cmp", "", "", 0, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if k != before.NextKey {
		t.Fatalf("post-compaction key=%d; want %d", k, before.NextKey)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	final, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(final.Live) != 9 || final.TerminalTotal() != 12 || final.NextKey != k+1 {
		t.Fatalf("post-compaction replay: live=%d terminals=%d next=%d",
			len(final.Live), final.TerminalTotal(), final.NextKey)
	}
}

// TestWALAutoCompaction checks the CompactEvery trigger keeps the log at
// O(live frontier): terminal history folds away on its own.
func TestWALAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	opts := fastOpts()
	opts.CompactEvery = 8
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		k, err := l.Submit("auto", "", "", 0, 0, 0, []byte("p"))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Terminal(k, OutcomeDone, ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	fr, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if fr.TerminalTotal() != 64 || len(fr.Live) != 0 {
		t.Fatalf("terminals=%d live=%d; want 64, 0", fr.TerminalTotal(), len(fr.Live))
	}
	// All 64 tasks concluded; the snapshot chain must have folded most of the
	// record stream (128 appends) out of the on-disk log.
	if fr.Records > 40 {
		t.Fatalf("auto-compaction left %d records on disk for an empty frontier", fr.Records)
	}
}

// TestWALChaosFreeze pins an injected crash to an exact record boundary: the
// records appended before the boundary are durable, the boundary record and
// everything after it are lost, and the OnCrash hook fires exactly once.
func TestWALChaosFreeze(t *testing.T) {
	restore := chaos.Enable(chaos.New(1, chaos.Plan{
		{Point: chaos.PointWALAppend, Act: chaos.ActKill, Prob: 1, Max: 1, After: 2},
	}))
	defer restore()

	dir := t.TempDir()
	crashes := 0
	opts := fastOpts()
	opts.OnCrash = func() { crashes++ }
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Submit("c", "", "", 0, 0, 0, []byte("a")); err != nil {
		t.Fatal(err) // boundary 0: durable
	}
	if _, err := l.Submit("c", "", "", 0, 0, 0, []byte("b")); err != nil {
		t.Fatal(err) // boundary 1: durable
	}
	if _, err := l.Submit("c", "", "", 0, 0, 0, []byte("c")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("boundary 2 should be the crash: %v", err) // boundary 2: lost
	}
	if err := l.Launch(1, 1); !errors.Is(err, ErrCrashed) {
		t.Fatalf("appends after the crash must keep failing: %v", err)
	}
	l.stageMu.Lock()
	crashed := l.crashed
	l.stageMu.Unlock()
	if !crashed {
		t.Fatal("log should report itself crashed")
	}
	if crashes != 1 {
		t.Fatalf("OnCrash fired %d times; want 1", crashes)
	}
	fr, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Records != 2 || len(fr.Live) != 2 {
		t.Fatalf("frozen disk replays records=%d live=%d; want exactly the 2 pre-boundary records",
			fr.Records, len(fr.Live))
	}
}

// TestWALWriteErrorSticks: a failed segment write is an error, not silent
// data loss. The first write error sticks — Sync, every later append and
// Close return it.
func TestWALWriteErrorSticks(t *testing.T) {
	opts := fastOpts()
	opts.SyncInterval = time.Hour // only Sync writes
	l, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	k, err := l.Submit("w", "", "", 0, 0, 0, []byte("staged"))
	if err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	_ = l.f.Close()
	l.mu.Unlock()
	if err := l.Sync(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Sync over a dead segment file: %v", err)
	}
	if _, err := l.Submit("w", "", "", 0, 0, 0, nil); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Submit after a failed write: %v", err)
	}
	if err := l.Terminal(k, OutcomeDone, ""); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Terminal after a failed write: %v", err)
	}
	if err := l.Close(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Close after a failed write: %v", err)
	}
}

// TestWALRefusedValueDoesNotStick: a value the codec refuses is an error
// for that Terminal only. The record is still appended, with no value, and
// the log keeps accepting appends.
func TestWALRefusedValueDoesNotStick(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	k1, _ := l.Submit("ch", "", "", 0, 0, 0, nil)
	k2, _ := l.Submit("ch", "", "", 0, 0, 0, nil)
	if err := l.Terminal(k1, OutcomeDone, make(chan int)); err == nil {
		t.Fatal("Terminal accepted a channel value")
	}
	if err := l.Terminal(k2, OutcomeDone, 7); err != nil {
		t.Fatalf("the append after a refused value: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	fr, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if term, ok := fr.Terminals[k1]; !ok || term.Outcome != OutcomeDone || len(term.Value) != 0 {
		t.Fatalf("refused value's terminal replayed as %+v, want done with no value", term)
	}
	if term := fr.Terminals[k2]; !bytes.Equal(term.Value, encoded(t, 7)) {
		t.Fatalf("task %d's terminal carries %q", k2, term.Value)
	}
}

// TestWALMidSegmentCorruptionFails: a damaged record followed by intact ones
// is corruption, not a torn tail, even in the final segment. Open and Replay
// fail, and Open truncates none of the synced records after it.
func TestWALMidSegmentCorruptionFails(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := l.Submit("mid", "", "", 0, 0, 0, []byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	paths, _, err := listSegments(dir)
	if err != nil || len(paths) != 1 {
		t.Fatalf("want one segment, got %d (%v)", len(paths), err)
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	second := frameHeaderLen + int(binary.BigEndian.Uint32(data))
	data[second+frameHeaderLen+2] ^= 0xA5 // a body byte of record 2 of 4
	if err := os.WriteFile(paths[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if fr, err := Replay(dir); err == nil {
		t.Fatalf("Replay took mid-segment damage for a torn tail: records=%d torn=%d", fr.Records, fr.Torn)
	}
	if l2, err := Open(dir, fastOpts()); err == nil {
		_ = l2.Close()
		t.Fatal("Open accepted mid-segment damage")
	}
	after, err := os.ReadFile(paths[0])
	if err != nil || !bytes.Equal(after, data) {
		t.Fatalf("the damaged segment changed on disk (%d → %d bytes, %v)", len(data), len(after), err)
	}
}

// TestWALCompactsOversizedFrontier: a snapshot frame carries every live
// task's submit body, so 70 live tasks of 1 MiB each make one 70 MiB frame.
// Compaction deletes the segments it folds, so replay must take that frame
// whole: refusing it as a torn tail would lose the live frontier, and once a
// record follows it, would fail Open outright.
func TestWALCompactsOversizedFrontier(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xC3}, 1<<20)
	for i := 0; i < 70; i++ {
		if _, err := l.Submit("big", "", "", 0, 0, 0, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	last, err := l.Submit("after", "", "", 0, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	fr := l2.Recovered()
	if fr == nil || len(fr.Live) != 71 || fr.Torn != 0 {
		t.Fatalf("recovered %+v, want 71 live tasks and no torn record", fr)
	}
	for key, info := range fr.Live {
		if key != last && !bytes.Equal(info.Payload, payload) {
			t.Fatalf("task %d: %d-byte payload, want the 1 MiB one", key, len(info.Payload))
		}
	}
}

// TestWALOversizedSubmitReopens: one submit record of 65 MiB is written, so
// replay takes it back.
func TestWALOversizedSubmitReopens(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	key, err := l.Submit("huge", "", "", 0, 0, 0, make([]byte, 65<<20))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	fr := l2.Recovered()
	if fr == nil || fr.Torn != 0 || fr.Live[key] == nil || len(fr.Live[key].Payload) != 65<<20 {
		t.Fatalf("the 65 MiB submit did not replay: %+v", fr)
	}
}

// TestWALConcurrentAppenders: four appenders submit, launch in batches, retry
// and conclude while a fifth goroutine drives the back end (Sync, Compact,
// LiveCount) on a log that rotates and auto-compacts constantly. What replays
// after Close equals a sequential model of the appends: live set, launches,
// next key and terminal total.
func TestWALConcurrentAppenders(t *testing.T) {
	dir := t.TempDir()
	opts := fastOpts()
	opts.SegmentBytes = 4 << 10
	opts.CompactEvery = 64
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	const appenders, perAppender = 4, 600
	lives := make([]map[int64]*TaskInfo, appenders)
	terminals := make([]int64, appenders)
	stop, backEnd := make(chan struct{}), make(chan error, 1)
	go func() {
		var err error
		for i := 0; err == nil; i++ {
			select {
			case <-stop:
				backEnd <- nil
				return
			default:
			}
			switch i % 3 {
			case 0:
				err = l.Sync()
			case 1:
				err = l.Compact()
			default:
				_ = l.LiveCount()
			}
		}
		backEnd <- err
	}()
	var wg sync.WaitGroup
	for g := range lives {
		live := map[int64]*TaskInfo{}
		lives[g] = live
		wg.Add(1)
		go func() {
			defer wg.Done()
			check := func(err error) bool {
				if err != nil {
					t.Error(err)
				}
				return err == nil
			}
			app := fmt.Sprintf("app-%d", g)
			var batch []int64
			for i := 0; i < perAppender; i++ {
				payload := []byte(fmt.Sprintf("%d/%d", g, i))
				k, err := l.Submit(app, "", "t", i%5, 1, 2, payload)
				if !check(err) {
					return
				}
				live[k] = &TaskInfo{Key: k, App: app, Tenant: "t", Priority: i % 5, Weight: 1, MaxRetries: 2, Payload: payload}
				if batch = append(batch, k); len(batch) < 4 {
					continue
				}
				if !check(l.LaunchBatch(batch)) {
					return
				}
				for j, k := range batch {
					live[k].Launches++
					if j%2 == 0 { // retried
						if !check(l.Retry(k, 2)) {
							return
						}
						live[k].Launches++
					}
					if j < 3 { // concluded; the fourth stays live
						if !check(l.Terminal(k, OutcomeDone, "")) {
							return
						}
						delete(live, k)
						terminals[g]++
					}
				}
				batch = batch[:0]
			}
		}()
	}
	wg.Wait()
	close(stop)
	if err := <-backEnd; err != nil {
		t.Fatal(err)
	}
	model := &Frontier{NextKey: appenders*perAppender + 1, Live: map[int64]*TaskInfo{}}
	for g, live := range lives {
		for k, info := range live {
			model.Live[k] = info
		}
		model.Folded += terminals[g]
	}
	if n := l.LiveCount(); n != len(model.Live) {
		t.Fatalf("LiveCount = %d, model %d", n, len(model.Live))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	fr, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	equalLiveSets(t, model, fr)
}

// TestWALAppendsAllocationFree: in steady state an append allocates nothing
// — Submit, LaunchBatch and Terminal frame into a reused stage, and the back
// end recycles mirror entries and swaps the stage buffers.
func TestWALAppendsAllocationFree(t *testing.T) {
	l, err := Open(t.TempDir(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	payload := bytes.Repeat([]byte("p"), 64)
	keys := make([]int64, 1)
	// Results arrive boxed; a terminal record must add no allocation of its
	// own for an int or a string.
	values := []any{1 << 20, "memo"}
	var n int
	op := func() {
		k, err := l.Submit("alloc", "memo", "tenant", 1, 1, 2, payload)
		if err != nil {
			t.Fatal(err)
		}
		keys[0] = k
		if err := l.LaunchBatch(keys); err != nil {
			t.Fatal(err)
		}
		n++
		if err := l.Terminal(k, OutcomeDone, values[n%len(values)]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4096; i++ {
		op()
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(2000, op); allocs != 0 {
		t.Fatalf("Submit + LaunchBatch + Terminal: %v allocations per task, want 0", allocs)
	}
}
