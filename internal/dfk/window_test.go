package dfk

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/executor"
	"repro/internal/executor/threadpool"
	"repro/internal/future"
	"repro/internal/monitor"
	"repro/internal/serialize"
)

// countingPool is a threadpool that counts the tasks handed to it and not yet
// started by the app below, and keeps the peak: every one of them is a ready
// task, so the peak is a lower bound on the most ready tasks the DFK held.
type countingPool struct {
	*threadpool.Executor
	inside, peak atomic.Int64
}

func (c *countingPool) SubmitInto(msgs []serialize.TaskMsg, futs []*future.Future) {
	n := c.inside.Add(int64(len(msgs)))
	for p := c.peak.Load(); n > p && !c.peak.CompareAndSwap(p, n); p = c.peak.Load() {
	}
	c.Executor.SubmitInto(msgs, futs)
}

// TestWindowBoundsReadyTasks submits a 100 k-task burst from one goroutine
// onto a pool whose input queue (4096) is deeper than the window: without the
// window the pool holds thousands of queued tasks; with it, never more than
// W plus one dispatch batch.
func TestWindowBoundsReadyTasks(t *testing.T) {
	reg := serialize.NewRegistry()
	pool := &countingPool{Executor: threadpool.New("tp", 2, reg)}
	d, err := New(Config{Registry: reg, Executors: []executor.Executor{pool}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	echo, err := d.PythonApp("echo", func(args []any, _ map[string]any) (any, error) {
		pool.inside.Add(-1)
		return args[0], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100_000
	futs := make([]*future.Future, n)
	for i := range futs {
		futs[i] = echo.Call(i)
	}
	for i, f := range futs {
		if v, err := f.Result(); err != nil || v != i {
			t.Fatalf("task %d = %v, %v", i, v, err)
		}
	}
	if got, limit := pool.peak.Load(), int64(window+d.batchMax); got > limit {
		t.Fatalf("executor held %d ready tasks, want <= W + one batch = %d", got, limit)
	}
}

// blockedDFK is a DFK over a two-worker pool with a "hold" app that blocks
// until release is called, for filling a tenant's window with ready tasks.
// Cleanup releases the app before shutting the DFK down, so a failed test
// does not hang in Shutdown.
func blockedDFK(t *testing.T, mon monitor.Sink) (d *DFK, hold *App, release func()) {
	t.Helper()
	reg := serialize.NewRegistry()
	d, err := New(Config{Registry: reg, Executors: []executor.Executor{threadpool.New("tp", 2, reg)}, Monitor: mon})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Shutdown() })
	gate := make(chan struct{})
	release = sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release)
	hold, err = d.PythonApp("hold", func([]any, map[string]any) (any, error) {
		<-gate
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, hold, release
}

// fill submits n ready tasks for tenant, failing if any submission parks.
func fill(t *testing.T, app *App, n int, opts ...CallOption) []*future.Future {
	t.Helper()
	out := make(chan []*future.Future, 1)
	go func() {
		futs := make([]*future.Future, n)
		for i := range futs {
			futs[i] = app.Submit(context.Background(), nil, opts...)
		}
		out <- futs
	}()
	select {
	case futs := <-out:
		return futs
	case <-time.After(10 * time.Second):
		t.Fatalf("%d submissions below the window parked", n)
		return nil
	}
}

// parkedSubmit submits one task on its own goroutine and checks that it parks.
func parkedSubmit(t *testing.T, ctx context.Context, app *App, opts ...CallOption) <-chan *future.Future {
	t.Helper()
	out := make(chan *future.Future, 1)
	go func() { out <- app.Submit(ctx, nil, opts...) }()
	select {
	case f := <-out:
		t.Fatalf("submission at a full window returned: %v", f.Err())
	case <-time.After(50 * time.Millisecond):
	}
	return out
}

func awaitFuture(t *testing.T, ch <-chan *future.Future) *future.Future {
	t.Helper()
	select {
	case f := <-ch:
		return f
	case <-time.After(10 * time.Second):
		t.Fatal("parked submitter never returned")
		return nil
	}
}

func resultsOK(t *testing.T, futs []*future.Future) {
	t.Helper()
	for _, f := range futs {
		if _, err := f.Result(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWindowParkedSubmitterCancel parks a submitter at a full window, cancels
// it, and checks it returns ErrCanceled without leaking a slot: once the
// window drains, exactly W tasks fit again and the next one parks.
func TestWindowParkedSubmitterCancel(t *testing.T) {
	d, hold, release := blockedDFK(t, nil)
	tenant := WithTenant("t", 1)
	first := fill(t, hold, window, tenant)
	ctx, cancel := context.WithCancel(context.Background())
	parked := parkedSubmit(t, ctx, hold, tenant)
	cancel()
	if err := awaitFuture(t, parked).Err(); !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled parked submission = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	release()
	resultsOK(t, first)

	again := make(chan struct{})
	releaseAgain := sync.OnceFunc(func() { close(again) })
	t.Cleanup(releaseAgain)
	hold2, err := d.PythonApp("hold2", func([]any, map[string]any) (any, error) {
		<-again
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	second := fill(t, hold2, window, tenant)
	last := parkedSubmit(t, context.Background(), hold2, tenant)
	releaseAgain()
	resultsOK(t, second)
	resultsOK(t, []*future.Future{awaitFuture(t, last)})
}

// TestWindowShutdownReleasesParkedSubmitter: Shutdown with a submitter parked
// at the window returns once the window drains, and the submitter gets
// ErrShutdown instead of a task.
func TestWindowShutdownReleasesParkedSubmitter(t *testing.T) {
	d, hold, release := blockedDFK(t, nil)
	futs := fill(t, hold, window)
	parked := parkedSubmit(t, context.Background(), hold)
	shut := make(chan error, 1)
	go func() { shut <- d.Shutdown() }()
	waitFor(t, func() bool {
		d.mu.RLock()
		defer d.mu.RUnlock()
		return d.shutdown
	})
	release()
	select {
	case err := <-shut:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not return with a parked submitter")
	}
	if err := awaitFuture(t, parked).Err(); !errors.Is(err, executor.ErrShutdown) {
		t.Fatalf("parked submission after Shutdown = %v, want ErrShutdown", err)
	}
	resultsOK(t, futs)
}

// TestWindowCountsOnlyReadyTasks: tasks waiting on a future the script holds
// take no slot, so 3 × W of them submit without parking, and all run once the
// script settles it — their launches, from the settling goroutine, never park.
func TestWindowCountsOnlyReadyTasks(t *testing.T) {
	d := newDFK(t, nil)
	inc, err := d.PythonApp("inc", func(args []any, _ map[string]any) (any, error) {
		return args[0].(int) + 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	dep := future.New()
	t.Cleanup(func() { _ = dep.SetResult(41) }) // lets Shutdown drain if a check fails
	n := 3 * window
	out := make(chan []*future.Future, 1)
	go func() {
		futs := make([]*future.Future, n)
		for i := range futs {
			futs[i] = inc.Call(dep)
		}
		out <- futs
	}()
	var futs []*future.Future
	select {
	case futs = <-out:
	case <-time.After(10 * time.Second):
		t.Fatalf("%d dependent submissions parked", n)
	}
	_ = dep.SetResult(41)
	for _, f := range futs {
		if v, err := f.Result(); err != nil || v != 42 {
			t.Fatalf("dependent = %v, %v", v, err)
		}
	}
}

// TestWindowPerTenant: a heavy tenant parked at its window does not park a
// light tenant's submitter, and the heavy one's wait is reported as an
// "admitted" tenant event.
func TestWindowPerTenant(t *testing.T) {
	store := monitor.NewStore()
	_, hold, release := blockedDFK(t, store)
	heavy, light := WithTenant("heavy", 1), WithTenant("light", 1)
	futs := fill(t, hold, window, heavy)
	parked := parkedSubmit(t, context.Background(), hold, heavy)
	futs = append(futs, fill(t, hold, 1, light)...)
	release()
	futs = append(futs, awaitFuture(t, parked))
	resultsOK(t, futs)
	found := false
	for _, e := range store.Events(monitor.KindTenant) {
		if e.Tenant == "heavy" && e.Detail == "admitted" && e.Duration > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no admitted event for the parked tenant; got %v", store.Events(monitor.KindTenant))
	}
}
