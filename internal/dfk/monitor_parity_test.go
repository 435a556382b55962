package dfk

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/future"
	"repro/internal/monitor"
)

// stateEvent is the part of a KindTaskState event the lifecycle stages decide.
type stateEvent struct{ From, To, Executor, Tenant string }

func historyOf(store *monitor.Store, f *future.Future) []stateEvent {
	var out []stateEvent
	for _, e := range store.TaskHistory(f.TaskID) {
		out = append(out, stateEvent{e.From, e.To, e.Executor, e.Tenant})
	}
	return out
}

func checkHistory(t *testing.T, what string, got, want []stateEvent) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: events %v, want %v", what, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: event %d = %v, want %v (all: %v)", what, i, got[i], want[i], got)
		}
	}
}

// flakyApp registers an app whose first execution fails and later ones echo.
func flakyApp(t *testing.T, d *DFK) *App {
	t.Helper()
	var calls atomic.Int32
	a, err := d.PythonApp("flaky", func(args []any, _ map[string]any) (any, error) {
		if calls.Add(1) == 1 {
			return nil, errors.New("first attempt fails")
		}
		return args[0], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestMonitorEventParity pins the task-state event stream a sink observes —
// From/To/Executor/Tenant, per task, in order — for the four lifecycles the
// stage transitions implement: a plain task, a retried one, a memo hit and a
// cancellation. The expected sequences are the ones the per-field-accessor
// implementation emitted; the stages must not change what an operator sees.
func TestMonitorEventParity(t *testing.T) {
	store := monitor.NewStore()
	d, echo := echoDFK(t, func(c *Config) { c.Monitor = store; c.Retries = 1 })
	memoEcho, err := d.PythonApp("memo-echo", func(args []any, _ map[string]any) (any, error) { return args[0], nil },
		WithMemoize(true))
	if err != nil {
		t.Fatal(err)
	}
	flaky := flakyApp(t, d)
	bg := context.Background()

	plain := echo.Submit(bg, []any{1}, WithTenant("t1", 2))
	retried := flaky.Submit(bg, []any{2})
	miss := memoEcho.Submit(bg, []any{3})
	for _, f := range []*future.Future{plain, retried, miss} {
		if _, err := f.Result(); err != nil {
			t.Fatal(err)
		}
	}
	hit := memoEcho.Submit(bg, []any{3}, WithTenant("t2", 1))
	if v, err := hit.Result(); err != nil || v != 3 {
		t.Fatalf("memo hit = %v, %v", v, err)
	}
	// Canceled while waiting on a dependency: never routed, never launched.
	ctx, cancel := context.WithCancel(bg)
	canceled := echo.Submit(ctx, []any{future.New()})
	cancel()
	if _, err := canceled.Result(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled task: %v", err)
	}
	d.WaitAll()

	checkHistory(t, "plain", historyOf(store, plain), []stateEvent{
		{"", "pending", "", "t1"},
		{"pending", "launched", "tp", "t1"},
		{"launched", "done", "tp", "t1"},
	})
	checkHistory(t, "retried", historyOf(store, retried), []stateEvent{
		{"", "pending", "", ""},
		{"pending", "launched", "tp", ""},
		{"launched", "retrying", "tp", ""},
		{"retrying", "launched", "tp", ""},
		{"launched", "done", "tp", ""},
	})
	checkHistory(t, "memo hit", historyOf(store, hit), []stateEvent{
		{"", "pending", "", "t2"},
		{"pending", "memoized", "", "t2"},
	})
	checkHistory(t, "canceled", historyOf(store, canceled), []stateEvent{
		{"", "pending", "", ""},
		{"pending", "failed", "", ""},
	})
}

// TestMonitorExecutionSpans runs a plain task and a retried one into a Store
// sink: the monitor stream is the only record of a task's history, so the
// store must rebuild one execution span per attempt from it — three here,
// each labeled with the executor the attempt was launched on and never ending
// before it starts.
func TestMonitorExecutionSpans(t *testing.T) {
	store := monitor.NewStore()
	d, echo := echoDFK(t, func(c *Config) { c.Monitor = store; c.Retries = 1 })
	plain := echo.Call(1)
	retried := flakyApp(t, d).Call(2)
	for _, f := range []*future.Future{plain, retried} {
		if _, err := f.Result(); err != nil {
			t.Fatal(err)
		}
	}
	d.WaitAll()

	spans := store.ExecutionSpans()
	perTask := map[int64]int{}
	for _, sp := range spans {
		perTask[sp.TaskID]++
		if sp.Executor != "tp" || sp.End.Before(sp.Start) {
			t.Fatalf("span %+v: want executor tp and End >= Start", sp)
		}
	}
	if len(spans) != 3 || perTask[plain.TaskID] != 1 || perTask[retried.TaskID] != 2 {
		t.Fatalf("spans = %+v, want 1 for the plain task and 2 for the retried one", spans)
	}
}
