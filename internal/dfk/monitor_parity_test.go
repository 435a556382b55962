package dfk

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/future"
	"repro/internal/monitor"
	"repro/internal/task"
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

// TestTransitionsPopulatedWithoutSink: with no sink attached the emit points
// build nothing, but the record's own history — Transitions and Timings — is
// still complete and its timestamps never run backwards, although one clock
// read now serves several stages (SubmitTime stamps Pending, one read stamps
// a whole lane batch).
func TestTransitionsPopulatedWithoutSink(t *testing.T) {
	d, echo := echoDFK(t, func(c *Config) { c.RetainRecords = true; c.Retries = 1 })
	plain := echo.Call(1)
	retried := flakyApp(t, d).Call(2)
	d.WaitAll()

	for _, tc := range []struct {
		what string
		fut  *future.Future
		want []task.State
	}{
		{"plain", plain, []task.State{task.Pending, task.Launched, task.Done}},
		{"retried", retried, []task.State{task.Pending, task.Launched, task.Retrying, task.Launched, task.Done}},
	} {
		rec := d.Graph().Get(tc.fut.TaskID)
		tr := rec.Transitions()
		if len(tr) != len(tc.want) {
			t.Fatalf("%s: transitions %v, want states %v", tc.what, tr, tc.want)
		}
		prev, at := task.Unsched, rec.SubmitTime
		if at.IsZero() {
			t.Fatalf("%s: SubmitTime unset", tc.what)
		}
		for i, x := range tr {
			if x.From != prev || x.To != tc.want[i] {
				t.Fatalf("%s: transition %d = %v -> %v, want %v -> %v", tc.what, i, x.From, x.To, prev, tc.want[i])
			}
			if x.At.IsZero() || x.At.Before(at) {
				t.Fatalf("%s: transition %d stamped %v, before %v", tc.what, i, x.At, at)
			}
			prev, at = x.To, x.At
		}
		launch, _, end := rec.Timings()
		if launch.IsZero() || end.IsZero() || launch.Before(rec.SubmitTime) || end.Before(launch) {
			t.Fatalf("%s: timings submit %v launch %v end %v", tc.what, rec.SubmitTime, launch, end)
		}
	}
}
