package dfk

import (
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/executor"
	"repro/internal/executor/threadpool"
	"repro/internal/monitor"
	"repro/internal/serialize"
	"repro/internal/wal"
)

// walDFK builds a WAL-enabled DFK over dir's wal subdirectory.
func walDFK(t *testing.T, dir string, mutate func(*Config)) *DFK {
	t.Helper()
	return newDFK(t, func(c *Config) {
		c.WAL = true
		c.WALDir = filepath.Join(dir, "wal")
		c.WALCompactEvery = -1 // tests inspect the raw record stream
		if mutate != nil {
			mutate(c)
		}
	})
}

func TestWALRecordsFullLifecycle(t *testing.T) {
	dir := t.TempDir()
	d := walDFK(t, dir, nil)
	double, err := d.PythonApp("double", func(args []any, _ map[string]any) (any, error) {
		return args[0].(int) * 2, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		if v, err := double.Call(i).Result(); err != nil || v != i*2 {
			t.Fatalf("task %d: v=%v err=%v", i, v, err)
		}
	}
	d.WaitAll()
	if err := d.WAL().Sync(); err != nil {
		t.Fatal(err)
	}
	fr, err := wal.Replay(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	// Each task logs exactly submit, launch, terminal — no more, no less.
	if fr.Records != 3*n {
		t.Fatalf("records=%d; want %d", fr.Records, 3*n)
	}
	if len(fr.Live) != 0 || fr.TerminalTotal() != n {
		t.Fatalf("live=%d terminals=%d; want 0, %d", len(fr.Live), fr.TerminalTotal(), n)
	}
	for k, term := range fr.Terminals {
		if term.Outcome != wal.OutcomeDone {
			t.Fatalf("task %d outcome=%v; want done", k, term.Outcome)
		}
	}
}

func TestRecoverResumesLiveTasks(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")

	// Lifetime 1, hand-simulated: two tasks submitted (one already launched
	// once), neither terminal — the classic in-flight-at-crash frontier.
	w, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	encode := func(v int) []byte {
		p, err := serialize.EncodeArgs([]any{v}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Release()
		return append([]byte(nil), p.Bytes()...)
	}
	k1, _ := w.Submit("double", "", "tenant-a", 2, 1, 1, encode(7))
	k2, _ := w.Submit("double", "", "", 0, 0, 1, encode(9))
	if err := w.Launch(k1, 1); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Lifetime 2: fresh process, same log.
	var execs atomic.Int64
	d := walDFK(t, dir, nil)
	if _, err := d.PythonApp("double", func(args []any, _ map[string]any) (any, error) {
		execs.Add(1)
		return args[0].(int) * 2, nil
	}); err != nil {
		t.Fatal(err)
	}
	rcv, err := d.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rcv.LiveAtCrash != 2 || len(rcv.Resumed) != 2 || rcv.TerminalAtCrash != 0 {
		t.Fatalf("recovery summary: %+v", rcv)
	}
	if v, err := rcv.Resumed[k1].Result(); err != nil || v != 14 {
		t.Fatalf("task %d: v=%v err=%v", k1, v, err)
	}
	if v, err := rcv.Resumed[k2].Result(); err != nil || v != 18 {
		t.Fatalf("task %d: v=%v err=%v", k2, v, err)
	}
	if got := execs.Load(); got != 2 {
		t.Fatalf("re-admitted tasks executed %d times; want exactly 2", got)
	}
	d.WaitAll()
	if err := d.WAL().Sync(); err != nil {
		t.Fatal(err)
	}
	fr, err := wal.Replay(walDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Live) != 0 || fr.TerminalTotal() != 2 {
		t.Fatalf("post-recovery frontier: live=%d terminals=%d", len(fr.Live), fr.TerminalTotal())
	}
}

func TestRecoverResolvesTerminalsFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cp := filepath.Join(dir, "checkpoint")

	// Lifetime 1: run to completion with memoization + checkpoint, clean
	// shutdown. The log ends holding terminal records that carry the values
	// the checkpoint also holds.
	d1 := walDFK(t, dir, func(c *Config) { c.Memoize = true; c.Checkpoint = cp })
	sq, err := d1.PythonApp("square", func(args []any, _ map[string]any) (any, error) {
		return args[0].(int) * args[0].(int), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, err := sq.Call(6).Result(); err != nil || v != 36 {
		t.Fatalf("lifetime 1: v=%v err=%v", v, err)
	}
	d1.WaitAll()
	if err := d1.Shutdown(); err != nil {
		t.Fatal(err)
	}

	// Lifetime 2: the terminal task must resolve from durable state — the
	// app is registered but must NOT run again.
	var execs atomic.Int64
	d2 := walDFK(t, dir, func(c *Config) { c.Memoize = true; c.Checkpoint = cp })
	if _, err := d2.PythonApp("square", func(args []any, _ map[string]any) (any, error) {
		execs.Add(1)
		return -1, nil
	}); err != nil {
		t.Fatal(err)
	}
	rcv, err := d2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rcv.TerminalAtCrash != 1 || rcv.LiveAtCrash != 0 {
		t.Fatalf("recovery summary: %+v", rcv)
	}
	for k, fut := range rcv.Resolved {
		if v, err := fut.Result(); err != nil || v != 36 {
			t.Fatalf("task %d resolved to v=%v err=%v", k, v, err)
		}
	}
	if execs.Load() != 0 {
		t.Fatalf("pre-crash-terminal task re-executed %d times; want 0", execs.Load())
	}
}

// runToShutdown runs square over 0..n-1 in a WAL-enabled DFK and shuts it
// down.
func runToShutdown(t *testing.T, dir string, mutate func(*Config), n int) {
	t.Helper()
	d := walDFK(t, dir, mutate)
	sq, err := d.PythonApp("square", func(args []any, _ map[string]any) (any, error) {
		return args[0].(int) * args[0].(int), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if v, err := sq.Call(i).Result(); err != nil || v != i*i {
			t.Fatalf("lifetime 1, task %d: v=%v err=%v", i, v, err)
		}
	}
	d.WaitAll()
	if err := d.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// recoverSquares recovers a log runToShutdown wrote and checks that every
// task resolves to its square from the log, with no app body run.
func recoverSquares(t *testing.T, dir string, mutate func(*Config), n int) {
	t.Helper()
	var execs atomic.Int64
	d := walDFK(t, dir, mutate)
	if _, err := d.PythonApp("square", func(args []any, _ map[string]any) (any, error) {
		execs.Add(1)
		return -1, nil
	}); err != nil {
		t.Fatal(err)
	}
	// Recover compacts the log, so the submit records are read before it.
	fr, err := wal.Replay(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	rcv, err := d.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rcv.TerminalAtCrash != n || len(rcv.Resolved) != n || rcv.LiveAtCrash != 0 {
		t.Fatalf("recovery summary: %+v", rcv)
	}
	seen := make(map[int]bool, n)
	for k, fut := range rcv.Resolved {
		v, err := fut.Result()
		if err != nil {
			t.Fatalf("task %d: %v", k, err)
		}
		i, ok := taskArg(fr, k)
		if !ok || v != i*i {
			t.Fatalf("task %d resolved to %v (%T), want the square of its argument %d", k, v, v, i)
		}
		seen[i] = true
	}
	if len(seen) != n {
		t.Fatalf("resolved %d distinct tasks, want %d", len(seen), n)
	}
	if got := execs.Load(); got != 0 {
		t.Fatalf("pre-crash-terminal tasks re-executed %d times; want 0", got)
	}
}

// taskArg reads the argument of the task the log keyed k from its submit
// record.
func taskArg(fr *wal.Frontier, k int64) (int, bool) {
	if info := fr.Terminals[k].Info; info != nil {
		args, _, err := serialize.DecodeArgsBytes(info.Payload)
		if err == nil && len(args) == 1 {
			i, ok := args[0].(int)
			return i, ok
		}
	}
	return 0, false
}

// TestRecoverAfterPowerLoss: the checkpoint is fsynced only at Close, so a
// power loss can leave it at its length at open while the log's terminal
// records survive. Recovery resolves every task from the log, re-running
// none.
func TestRecoverAfterPowerLoss(t *testing.T) {
	dir := t.TempDir()
	cp := filepath.Join(dir, "checkpoint")
	memoized := func(c *Config) { c.Memoize = true; c.Checkpoint = cp }
	const n = 8
	runToShutdown(t, dir, memoized, n)
	if st, err := os.Stat(cp); err != nil || st.Size() == 0 {
		t.Fatalf("lifetime 1 checkpointed nothing: %v", err)
	}
	// The checkpoint was created empty at open: what a power loss leaves.
	if err := os.Truncate(cp, 0); err != nil {
		t.Fatal(err)
	}
	recoverSquares(t, dir, memoized, n)
}

// TestRecoverNonMemoizedValues: without memoization nothing but the log holds
// a finished task's value, and recovery resolves every task to it.
func TestRecoverNonMemoizedValues(t *testing.T) {
	dir := t.TempDir()
	const n = 8
	runToShutdown(t, dir, nil, n)
	recoverSquares(t, dir, nil, n)
}

// TestRecoverUnpersistableResult: a memoized result the codec cannot hold (a
// channel) is reported as a checkpoint write error, and its terminal record
// carries no value, so the next lifetime fails the task loudly instead of
// re-running it.
func TestRecoverUnpersistableResult(t *testing.T) {
	dir := t.TempDir()
	cp := filepath.Join(dir, "checkpoint")
	store := monitor.NewStore()
	d1 := walDFK(t, dir, func(c *Config) { c.Memoize = true; c.Checkpoint = cp; c.Monitor = store })
	mk, err := d1.PythonApp("mkchan", func([]any, map[string]any) (any, error) {
		return make(chan int), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mk.Call(1).Result(); err != nil {
		t.Fatalf("lifetime 1: %v", err)
	}
	d1.WaitAll()
	if err := d1.Shutdown(); err != nil {
		t.Fatal(err)
	}
	var reported bool
	for _, e := range store.Events(monitor.KindWAL) {
		reported = reported || strings.HasPrefix(e.Detail, "checkpoint: ")
	}
	if !reported {
		t.Fatalf("no checkpoint event among %+v", store.Events(monitor.KindWAL))
	}

	d2 := walDFK(t, dir, func(c *Config) { c.Memoize = true; c.Checkpoint = cp })
	rcv, err := d2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rcv.Resolved) != 1 {
		t.Fatalf("recovery summary: %+v", rcv)
	}
	for k, fut := range rcv.Resolved {
		if _, err := fut.Result(); err == nil || !strings.Contains(err.Error(), "without a durable value") {
			t.Fatalf("task %d resolved with %v, want the no-durable-value error", k, err)
		}
	}
}

func TestRecoverRespectsExhaustedBudget(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	w, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := serialize.EncodeArgs([]any{1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// maxRetries=1 allows 2 launches; both were consumed before the crash.
	k, _ := w.Submit("double", "", "", 0, 0, 1, p.Bytes())
	p.Release()
	_ = w.Launch(k, 1)
	_ = w.Retry(k, 2)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var execs atomic.Int64
	d := walDFK(t, dir, nil)
	if _, err := d.PythonApp("double", func(args []any, _ map[string]any) (any, error) {
		execs.Add(1)
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	rcv, err := d.Recover()
	if err != nil {
		t.Fatal(err)
	}
	_, rerr := rcv.Resumed[k].Result()
	if rerr == nil || !strings.Contains(rerr.Error(), "retry budget exhausted") {
		t.Fatalf("want budget-exhausted failure, got %v", rerr)
	}
	if execs.Load() != 0 {
		t.Fatalf("budget-exhausted task still executed %d times", execs.Load())
	}
}

func TestRecoverUnregisteredAppFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	w, err := wal.Open(walDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := serialize.EncodeArgs([]any{1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	k, _ := w.Submit("ghost", "", "", 0, 0, 0, p.Bytes())
	p.Release()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	d := walDFK(t, dir, nil)
	rcv, err := d.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rcv.Unrecoverable != 1 {
		t.Fatalf("Unrecoverable=%d; want 1", rcv.Unrecoverable)
	}
	if _, rerr := rcv.Resumed[k].Result(); rerr == nil || !strings.Contains(rerr.Error(), "not registered") {
		t.Fatalf("want not-registered failure, got %v", rerr)
	}
}

func TestRecoverRequiresWAL(t *testing.T) {
	d := newDFK(t, nil)
	if _, err := d.Recover(); err == nil {
		t.Fatal("Recover without Config.WAL should error")
	}
}

func TestWALConfigRequiresDir(t *testing.T) {
	reg := serialize.NewRegistry()
	_, err := New(Config{
		WAL:       true,
		Executors: []executor.Executor{threadpool.New("tp", 1, reg)},
	})
	if err == nil || !strings.Contains(err.Error(), "WALDir") {
		t.Fatalf("want WALDir config error, got %v", err)
	}
}
