package dfk

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/executor"
	"repro/internal/executor/htex"
	"repro/internal/executor/threadpool"
	"repro/internal/provider"
	"repro/internal/sched"
	"repro/internal/serialize"
	"repro/internal/simnet"
	"repro/internal/wal"
)

// newSnapshotDFK is a DFK over one threadpool of the given size.
func newSnapshotDFK(t *testing.T, workers int) *DFK {
	t.Helper()
	reg := serialize.NewRegistry()
	d, err := New(Config{Registry: reg, Executors: []executor.Executor{threadpool.New("tp", workers, reg)}})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSnapshotsWhateverReadsTheBytes: every DFK hands a threadpool worker a
// copy of a plain-value task's values, not a decode of their bytes, whether
// the WAL logs the bytes, a digest-routing scheduler hashes them, a remote
// executor sits beside the pool, or a memo key hashes them; and a memoized
// app keyed from the lazily built bytes still hits. A worker whose string
// argument shares the caller's bytes was handed the values: a decode copies
// them.
func TestSnapshotsWhateverReadsTheBytes(t *testing.T) {
	arg := strings.Repeat("plain value ", 4)
	for name, cfg := range map[string]func(*Config){
		"threadpool": func(*Config) {},
		"wal":        func(c *Config) { c.WAL, c.WALDir = true, t.TempDir() },
		"locality":   func(c *Config) { c.Scheduler = sched.NewLocality() },
		"remote":     func(c *Config) { c.Executors = append(c.Executors, &payloadSpy{}) },
	} {
		reg := serialize.NewRegistry()
		c := Config{Registry: reg, Executors: []executor.Executor{threadpool.New("tp", 1, reg)}}
		cfg(&c)
		d, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		var runs atomic.Int64
		body := func(args []any, _ map[string]any) (any, error) {
			runs.Add(1)
			return unsafe.StringData(args[0].(string)) == unsafe.StringData(arg), nil
		}
		plain, err := d.PythonApp("plain", body, WithExecutors("tp"))
		if err != nil {
			t.Fatal(err)
		}
		memoized, err := d.PythonApp("memoized", body, WithExecutors("tp"), WithMemoize(true))
		if err != nil {
			t.Fatal(err)
		}
		if shared, err := plain.Call(arg, 300).Result(); err != nil || shared != true {
			t.Errorf("%s: worker shares the caller's string = %v, %v; want a copy of the values", name, shared, err)
		}
		for i := 0; i < 2; i++ {
			if shared, err := memoized.Call(arg, 300).Result(); err != nil || shared != true {
				t.Errorf("%s: memoized call %d shares the caller's string = %v, %v", name, i, shared, err)
			}
		}
		if err := d.Shutdown(); err != nil {
			t.Fatal(err)
		}
		if n := runs.Load(); n != 2 {
			t.Errorf("%s: apps ran %d times, want 2 and a memo hit", name, n)
		}
	}
}

// TestSnapshotTakenAtSubmit: a task with no inputs launches inside Submit, so
// a caller that reassigns its argument slice after Submit returns, while the
// task still waits for a worker, changes nothing the app sees.
func TestSnapshotTakenAtSubmit(t *testing.T) {
	d := newSnapshotDFK(t, 1)
	defer d.Shutdown()
	release := make(chan struct{})
	unblock := sync.OnceFunc(func() { close(release) })
	defer unblock() // runs before Shutdown: a failing test must not leave the blocker parked
	block, err := d.PythonApp("snap-block", func([]any, map[string]any) (any, error) {
		<-release
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	echo, err := d.PythonApp("snap-echo", func(args []any, _ map[string]any) (any, error) {
		return fmt.Sprint(args...), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	blocker := block.Call()
	args := []any{"submitted", 300, 2.5}
	fut := echo.Submit(context.Background(), args)
	args[0], args[1], args[2] = "mutated", 301, nil
	unblock()
	if _, err := blocker.Result(); err != nil {
		t.Fatal(err)
	}
	if v, err := fut.Result(); err != nil || v != "submitted300 2.5" {
		t.Fatalf("echo = %q, %v; want the submit-time arguments", v, err)
	}
}

// TestSnapshotRetrySeesOriginalArgs: every attempt gets a fresh copy of the
// snapshot, so an app that reassigns its first argument and then fails leaves
// its retry the original value.
func TestSnapshotRetrySeesOriginalArgs(t *testing.T) {
	d := newSnapshotDFK(t, 1)
	defer d.Shutdown()
	var runs atomic.Int64
	app, err := d.PythonApp("snap-retry", func(args []any, _ map[string]any) (any, error) {
		if runs.Add(1) == 1 {
			args[0] = "clobbered"
			return nil, errors.New("first attempt fails")
		}
		return args[0], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := app.Submit(context.Background(), []any{"original", 300}, WithRetries(1)).Result()
	if err != nil || v != "original" {
		t.Fatalf("retry = %v, %v; want the original first argument", v, err)
	}
	if n := runs.Load(); n != 2 {
		t.Fatalf("app ran %d times, want 2", n)
	}
}

// labelsInTurn is a scheduler that picks the executor labelled order[i] on
// its i-th pick, and the last one after that.
type labelsInTurn struct {
	mu     sync.Mutex
	order  []string
	picked []string
}

func (s *labelsInTurn) Name() string { return "labels-in-turn" }

func (s *labelsInTurn) Pick(candidates []executor.Executor) (executor.Executor, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	want := s.order[min(len(s.picked), len(s.order)-1)]
	for _, ex := range candidates {
		if ex.Label() == want {
			s.picked = append(s.picked, want)
			return ex, nil
		}
	}
	return nil, fmt.Errorf("no executor %q among %d candidates", want, len(candidates))
}

// TestSnapshotRetryMovesToHTEX: a plain-value task whose first attempt fails
// on the threadpool retries on htex. Nothing read its bytes before, so the
// htex client's framing builds them; the worker decodes them to the values
// the first attempt was given, whatever that attempt did to its copy.
func TestSnapshotRetryMovesToHTEX(t *testing.T) {
	reg := serialize.NewRegistry()
	hx := htex.New(htex.Config{
		Label:      "htex",
		Transport:  simnet.NewNetwork(0),
		Registry:   reg,
		Provider:   provider.NewLocal(provider.Config{NodesPerBlock: 1}),
		InitBlocks: 1,
		Manager:    htex.ManagerConfig{Workers: 1},
	})
	turns := &labelsInTurn{order: []string{"tp", "htex"}}
	d, err := New(Config{
		Registry:  reg,
		Executors: []executor.Executor{threadpool.New("tp", 1, reg), hx},
		Scheduler: turns,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	var runs atomic.Int64
	app, err := d.PythonApp("tp-then-htex", func(args []any, _ map[string]any) (any, error) {
		if runs.Add(1) == 1 {
			args[0], args[1] = "clobbered", -1
			return nil, errors.New("first attempt fails")
		}
		return fmt.Sprint(args...), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := app.Submit(context.Background(), []any{"chr1", 300, 2.5, int64(1 << 40), true, nil}, WithRetries(1)).Result()
	if want := fmt.Sprint("chr1", 300, 2.5, int64(1<<40), true, nil); err != nil || v != want {
		t.Fatalf("retry on htex = %q, %v; want %q", v, err, want)
	}
	turns.mu.Lock()
	defer turns.mu.Unlock()
	if fmt.Sprint(turns.picked) != "[tp htex]" {
		t.Fatalf("attempts routed to %v, want [tp htex]", turns.picked)
	}
}

// TestSnapshotLoggedBytesRecover: with the WAL on, a plain-value task's
// submit record holds the bytes its snapshot built for the log, and a process
// recovering that log runs the task on them to the value the first process
// would have returned.
func TestSnapshotLoggedBytesRecover(t *testing.T) {
	dir, crashed := t.TempDir(), t.TempDir()
	args := []any{"chr1", 300, 2.5, int64(1 << 40), false, nil}
	want := fmt.Sprint(args...)
	echo := func(args []any, _ map[string]any) (any, error) { return fmt.Sprint(args...), nil }

	// Lifetime 1: the task parks in its app while the log is copied, so the
	// copy holds it submitted and launched but not concluded.
	d1 := walDFK(t, dir, nil)
	started, release := make(chan struct{}), make(chan struct{})
	defer close(release) // runs before walDFK's Shutdown: a failure must not leave the app parked
	app, err := d1.PythonApp("echo", func(args []any, kw map[string]any) (any, error) {
		close(started)
		<-release
		return echo(args, kw)
	})
	if err != nil {
		t.Fatal(err)
	}
	// One retry: the copy holds the task launched once, which recovery
	// charges as an attempt.
	fut := app.Submit(context.Background(), args, WithRetries(1))
	<-started
	if err := d1.WAL().Sync(); err != nil {
		t.Fatal(err)
	}
	if err := os.CopyFS(filepath.Join(crashed, "wal"), os.DirFS(filepath.Join(dir, "wal"))); err != nil {
		t.Fatal(err)
	}
	fr, err := wal.Replay(filepath.Join(crashed, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := serialize.EncodeArgs(args, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer enc.Release()
	if len(fr.Live) != 1 {
		t.Fatalf("copied log holds %d live tasks, want 1", len(fr.Live))
	}
	for _, info := range fr.Live {
		if !bytes.Equal(info.Payload, enc.Bytes()) {
			t.Fatalf("logged payload %x, EncodeArgs %x", info.Payload, enc.Bytes())
		}
	}

	// Lifetime 2: recover the copy.
	d2 := walDFK(t, crashed, nil)
	if _, err := d2.PythonApp("echo", echo); err != nil {
		t.Fatal(err)
	}
	rcv, err := d2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rcv.Resumed) != 1 {
		t.Fatalf("recovery summary: %+v", rcv)
	}
	for k, f := range rcv.Resumed {
		if v, err := f.Result(); err != nil || v != want {
			t.Fatalf("recovered task %d = %q, %v; want %q", k, v, err, want)
		}
	}
	release <- struct{}{}
	if v, err := fut.Result(); err != nil || v != want {
		t.Fatalf("lifetime 1 = %q, %v; want %q", v, err, want)
	}
}
