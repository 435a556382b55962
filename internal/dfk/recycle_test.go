package dfk

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/future"
	"repro/internal/monitor"
	"repro/internal/wal"
)

// TestRecycleReclaimsTerminalRecords drains a batch and asserts the DFK
// holds nothing: no task outstanding, every task counted concluded, futures
// still readable (they are deliberately not pooled), and the monitor saw
// records retired.
func TestRecycleReclaimsTerminalRecords(t *testing.T) {
	store := monitor.NewStore()
	d := newDFK(t, func(c *Config) { c.Monitor = store })
	dbl, err := d.PythonApp("dbl-recycle", func(args []any, _ map[string]any) (any, error) {
		return args[0].(int) * 2, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	futs := make([]*future.Future, n)
	for i := 0; i < n; i++ {
		futs[i] = dbl.Call(i)
	}
	d.WaitAll()
	if out := d.Outstanding(); out != 0 {
		t.Fatalf("Outstanding = %d after drain, want 0", out)
	}
	if got := concluded(d); got != n {
		t.Fatalf("concluded = %d, want %d", got, n)
	}
	// The AppFuture outlives its record: results readable post-recycle.
	for i, f := range futs {
		v, err := f.Result()
		if err != nil || v != i*2 {
			t.Fatalf("task %d after recycle: %v, %v", i, v, err)
		}
	}
	if events := store.Events(monitor.KindGraph); len(events) == 0 {
		t.Fatal("no record-retirement events emitted")
	}
}

// TestRecycledRecordsCarryNoGhostState reuses pooled records across waves:
// a second wave must see fresh state, not residue from the first, and the
// done tally accumulates.
func TestRecycledRecordsCarryNoGhostState(t *testing.T) {
	d := newDFK(t, nil)
	inc, err := d.PythonApp("inc-recycle", func(args []any, _ map[string]any) (any, error) {
		return args[0].(int) + 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	const wave = 100
	for w := 0; w < 2; w++ {
		for i := 0; i < wave; i++ {
			if v, err := inc.Call(w*1000 + i).Result(); err != nil || v != w*1000+i+1 {
				t.Fatalf("wave %d task %d: %v, %v", w, i, v, err)
			}
		}
		d.WaitAll()
	}
	if got := d.Summary()["done"]; got != 2*wave {
		t.Fatalf("done = %d, want %d", got, 2*wave)
	}
}

// TestRecycleAcrossDependencyChain recycles upstream records while their
// futures still feed dependents: the chain must resolve correctly because
// dependency edges hold futures, never record pointers.
func TestRecycleAcrossDependencyChain(t *testing.T) {
	d := newDFK(t, nil)
	inc, err := d.PythonApp("inc-chain", func(args []any, _ map[string]any) (any, error) {
		return args[0].(int) + 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	f := inc.Call(0)
	for i := 0; i < 50; i++ {
		f = inc.Call(f)
	}
	if v, err := f.Result(); err != nil || v != 51 {
		t.Fatalf("chain tail = %v, %v (want 51)", v, err)
	}
	d.WaitAll()
	if out := d.Outstanding(); out != 0 {
		t.Fatalf("Outstanding = %d after chain drain, want 0", out)
	}
}

// TestLateAttemptSettleAfterRecycleIsNoOp times an attempt out (failing and
// recycling the task) while the executor is still running it; the executor's
// eventual result relays into an already-settled attempt future against a
// recycled record. That late settle must be a clean no-op: no panic from the
// use-after-recycle guard, no resurrected state, no second conclusion.
func TestLateAttemptSettleAfterRecycleIsNoOp(t *testing.T) {
	d := newDFK(t, nil)
	release := make(chan struct{})
	slow, err := d.PythonApp("slow-recycle", func([]any, map[string]any) (any, error) {
		<-release
		return "too late", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fut := slow.Submit(context.Background(), nil, WithTimeout(20*time.Millisecond))
	if _, err := fut.Result(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("error = %v, want ErrTimeout", err)
	}
	d.WaitAll() // task concluded and retired; worker still parked
	if out := d.Outstanding(); out != 0 {
		t.Fatalf("Outstanding = %d after timeout conclusion, want 0", out)
	}
	// Unpark the worker: its success now chases a recycled record.
	close(release)
	// Shutdown (via cleanup) joins the worker; give the relay a moment first
	// so the late settle actually runs under this test.
	time.Sleep(50 * time.Millisecond)
	if _, err := fut.Result(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("late executor success resurrected the task: %v", err)
	}
	if s := d.Summary(); s["failed"] != 1 || concluded(d) != 1 {
		t.Fatalf("Summary = %v, want the one task failed", s)
	}
}

// TestLateSettleAfterWALTerminalIsNoOp is the durable twin of the test above:
// once the timeout's failed terminal record is in the WAL, a late executor
// success chasing the recycled record must not append anything — the log
// already proved the task concluded, and a second terminal (or a resurrected
// result) would break exactly-once replay after a crash.
func TestLateSettleAfterWALTerminalIsNoOp(t *testing.T) {
	dir := t.TempDir()
	d := walDFK(t, dir, nil)
	release := make(chan struct{})
	slow, err := d.PythonApp("slow-wal-recycle", func([]any, map[string]any) (any, error) {
		<-release
		return "too late", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fut := slow.Submit(context.Background(), nil, WithTimeout(20*time.Millisecond))
	if _, err := fut.Result(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("error = %v, want ErrTimeout", err)
	}
	d.WaitAll() // task concluded and retired; worker still parked
	if err := d.WAL().Sync(); err != nil {
		t.Fatal(err)
	}
	fr1, err := wal.Replay(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(fr1.Live) != 0 || fr1.TerminalTotal() != 1 {
		t.Fatalf("pre-release frontier: live=%d terminals=%d", len(fr1.Live), fr1.TerminalTotal())
	}
	for k, term := range fr1.Terminals {
		if term.Outcome != wal.OutcomeFailed {
			t.Fatalf("task %d outcome=%v; want failed (timeout)", k, term.Outcome)
		}
	}
	// Unpark the worker: its success now chases a recycled record whose
	// terminal is already durable.
	close(release)
	time.Sleep(50 * time.Millisecond)
	if _, err := fut.Result(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("late executor success resurrected the task: %v", err)
	}
	if err := d.WAL().Sync(); err != nil {
		t.Fatal(err)
	}
	fr2, err := wal.Replay(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	if fr2.Records != fr1.Records {
		t.Fatalf("late settle appended to the log: %d records, had %d", fr2.Records, fr1.Records)
	}
	if len(fr2.Live) != 0 || fr2.TerminalTotal() != 1 {
		t.Fatalf("post-release frontier: live=%d terminals=%d", len(fr2.Live), fr2.TerminalTotal())
	}
}
