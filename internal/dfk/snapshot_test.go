package dfk

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/executor"
	"repro/internal/executor/threadpool"
	"repro/internal/sched"
	"repro/internal/serialize"
)

// newSnapshotDFK is a DFK over one threadpool of the given size: the
// deployment whose plain-value tasks carry value snapshots.
func newSnapshotDFK(t *testing.T, workers int) *DFK {
	t.Helper()
	reg := serialize.NewRegistry()
	d, err := New(Config{Registry: reg, Executors: []executor.Executor{threadpool.New("tp", workers, reg)}})
	if err != nil {
		t.Fatal(err)
	}
	if !d.snapshots {
		t.Fatal("a threadpool-only DFK with the WAL off builds no value snapshots")
	}
	return d
}

// TestSnapshotsOnlyWhereNothingReadsBytes: a DFK builds value snapshots only
// when every executor is in-process, the WAL is off and the scheduler routes
// on no input digest; and a memoized app's payload stays encoded, because its
// key hashes the bytes.
func TestSnapshotsOnlyWhereNothingReadsBytes(t *testing.T) {
	d := newSnapshotDFK(t, 2)
	defer d.Shutdown()
	var runs atomic.Int64
	memoized, err := d.PythonApp("memo-snap", func(args []any, _ map[string]any) (any, error) {
		runs.Add(1)
		return args[0], nil
	}, WithMemoize(true))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if v, err := memoized.Call(300).Result(); err != nil || v != 300 {
			t.Fatalf("memoized call %d = %v, %v", i, v, err)
		}
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("memoized app ran %d times, want 1 and a memo hit", n)
	}

	for name, cfg := range map[string]func(*Config){
		"wal":      func(c *Config) { c.WAL, c.WALDir = true, t.TempDir() },
		"locality": func(c *Config) { c.Scheduler = sched.NewLocality() },
		"remote":   func(c *Config) { c.Executors = append(c.Executors, &payloadSpy{}) },
	} {
		reg := serialize.NewRegistry()
		c := Config{Registry: reg, Executors: []executor.Executor{threadpool.New("tp", 1, reg)}}
		cfg(&c)
		d, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		snap := d.snapshots
		if err := d.Shutdown(); err != nil {
			t.Fatal(err)
		}
		if snap {
			t.Errorf("%s: the DFK builds value snapshots", name)
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
