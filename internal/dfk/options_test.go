package dfk

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/executor"
	"repro/internal/executor/threadpool"
	"repro/internal/serialize"
)

// TestWithExecutorOverridesHints pins one invocation to a different executor
// than the app's registration hints name.
func TestWithExecutorOverridesHints(t *testing.T) {
	reg := serialize.NewRegistry()
	a := threadpool.New("pool-a", 1, reg)
	b := threadpool.New("pool-b", 1, reg)
	d, err := New(Config{Registry: reg, Executors: []executor.Executor{a, b}, Seed: 3, RetainRecords: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	app, err := d.PythonApp("where", func([]any, map[string]any) (any, error) {
		return nil, nil
	}, WithExecutors("pool-a"))
	if err != nil {
		t.Fatal(err)
	}

	fut := app.Submit(context.Background(), nil, WithExecutor("pool-b"))
	if _, err := fut.Result(); err != nil {
		t.Fatal(err)
	}
	if got := record(d, fut.TaskID).Executor(); got != "pool-b" {
		t.Fatalf("ran on %q, want pool-b (per-call override)", got)
	}
	// Without the option the registration hint still governs.
	fut2 := app.Call()
	if _, err := fut2.Result(); err != nil {
		t.Fatal(err)
	}
	if got := record(d, fut2.TaskID).Executor(); got != "pool-a" {
		t.Fatalf("ran on %q, want pool-a (registration hint)", got)
	}

	// An unknown label fails the task, not the engine.
	bad := app.Submit(context.Background(), nil, WithExecutor("nope"))
	if _, err := bad.Result(); err == nil {
		t.Fatal("unknown per-call executor succeeded")
	}
}

// TestWithRetriesOverridesBudget gives one call a larger retry budget than
// the DFK default of zero.
func TestWithRetriesOverridesBudget(t *testing.T) {
	d := newDFK(t, nil) // Config.Retries == 0
	var calls atomic.Int64
	app, err := d.PythonApp("flaky", func([]any, map[string]any) (any, error) {
		if calls.Add(1) < 3 {
			return nil, errors.New("transient")
		}
		return "ok", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := app.Submit(context.Background(), nil, WithRetries(2)).Result()
	if err != nil || v != "ok" {
		t.Fatalf("Result = %v, %v (want ok after 2 retries)", v, err)
	}
	if n := calls.Load(); n != 3 {
		t.Fatalf("app ran %d times, want 3", n)
	}
	// The next plain call is back to the DFK-wide budget: fail-fast.
	calls.Store(0)
	if _, err := app.Call().Result(); err == nil {
		t.Fatal("expected failure with zero retries")
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("app ran %d times, want 1", n)
	}
}

// TestWithTimeoutBoundsOneAttempt overrides the DFK-wide TaskTimeout for a
// single invocation.
func TestWithTimeoutBoundsOneAttempt(t *testing.T) {
	d := newDFK(t, nil) // no DFK-wide timeout
	release := make(chan struct{})
	defer close(release)
	app, err := d.PythonApp("slow", func([]any, map[string]any) (any, error) {
		<-release
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fut := app.Submit(context.Background(), nil, WithTimeout(20*time.Millisecond))
	if _, err := fut.Result(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("error = %v, want ErrTimeout", err)
	}
}

// TestWithDeadlineAlreadyPassed fails the task without dispatch.
func TestWithDeadlineAlreadyPassed(t *testing.T) {
	d := newDFK(t, nil)
	var ran atomic.Int64
	app, err := d.PythonApp("never", func([]any, map[string]any) (any, error) {
		ran.Add(1)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fut := app.Submit(context.Background(), nil, WithDeadline(time.Now().Add(-time.Second)))
	if _, err := fut.Result(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("error = %v, want ErrTimeout", err)
	}
	d.WaitAll()
	if n := ran.Load(); n != 0 {
		t.Fatalf("expired task ran %d times", n)
	}
}

// TestRetryRespectsExpiredDeadline: a retry whose per-call deadline has
// meanwhile passed must fail with ErrTimeout instead of dispatching again —
// the task must not complete successfully after its deadline.
func TestRetryRespectsExpiredDeadline(t *testing.T) {
	d := newDFK(t, nil)
	var calls atomic.Int64
	app, err := d.PythonApp("flaky-deadline", func([]any, map[string]any) (any, error) {
		if calls.Add(1) == 1 {
			time.Sleep(60 * time.Millisecond) // outlive the deadline
			return nil, errors.New("transient")
		}
		return "too late", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fut := app.Submit(context.Background(), nil,
		parslDeadline(40*time.Millisecond), WithRetries(5))
	if v, err := fut.Result(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Result = %v, %v; want ErrTimeout (no post-deadline success)", v, err)
	}
	d.WaitAll()
	if n := calls.Load(); n > 1 {
		t.Fatalf("app ran %d times; retries must not dispatch past the deadline", n)
	}
}

// parslDeadline is WithDeadline relative to now, for test readability.
func parslDeadline(in time.Duration) CallOption {
	return WithDeadline(time.Now().Add(in))
}

// TestWithMemoKeySharesResults memoizes two differently-argumented calls
// under one explicit key, on an app registered without memoization.
func TestWithMemoKeySharesResults(t *testing.T) {
	d := newDFK(t, nil)
	var calls atomic.Int64
	app, err := d.PythonApp("expensive", func(args []any, _ map[string]any) (any, error) {
		calls.Add(1)
		return fmt.Sprintf("computed-%v", args[0]), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	v1, err := app.Submit(ctx, []any{"a"}, WithMemoKey("shared")).Result()
	if err != nil {
		t.Fatal(err)
	}
	v2, err := app.Submit(ctx, []any{"b"}, WithMemoKey("shared")).Result()
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Fatalf("values differ: %v vs %v (same memo key must share)", v1, v2)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("app ran %d times, want 1", n)
	}
	// A different key computes fresh.
	if _, err := app.Submit(ctx, []any{"a"}, WithMemoKey("other")).Result(); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("app ran %d times, want 2", n)
	}
}

// TestSubmitOnCanceledContext fails fast without creating a task.
func TestSubmitOnCanceledContext(t *testing.T) {
	d := newDFK(t, nil)
	app, err := d.PythonApp("noop", func([]any, map[string]any) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	before := d.graph.Len()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fut := app.Submit(ctx, nil)
	if _, err := fut.Result(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("error = %v, want ErrCanceled", err)
	}
	if d.graph.Len() != before {
		t.Fatal("submission on a dead context created a task")
	}
}
