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
	"repro/internal/task"
)

// gateExec is a test executor whose SubmitBatch blocks until the gate opens,
// recording submission order. It makes "a backlogged lane" a deterministic
// condition instead of a timing accident: while one batch is parked on the
// gate, everything routed afterwards piles up in the lane's priority queue.
type gateExec struct {
	label   string
	gate    chan struct{} // close to open
	entered chan struct{} // one token per SubmitBatch call, sent before blocking

	mu   sync.Mutex
	msgs []serialize.TaskMsg
}

func newGateExec(label string) *gateExec {
	return &gateExec{
		label:   label,
		gate:    make(chan struct{}),
		entered: make(chan struct{}, 64),
	}
}

func (g *gateExec) Label() string { return g.label }
func (g *gateExec) Start() error  { return nil }
func (g *gateExec) Submit(msg serialize.TaskMsg) *future.Future {
	return g.SubmitBatch([]serialize.TaskMsg{msg})[0]
}
func (g *gateExec) SubmitBatch(msgs []serialize.TaskMsg) []*future.Future {
	g.entered <- struct{}{}
	<-g.gate
	g.mu.Lock()
	g.msgs = append(g.msgs, msgs...)
	g.mu.Unlock()
	futs := make([]*future.Future, len(msgs))
	for i := range msgs {
		futs[i] = future.Completed(msgs[i].App)
	}
	return futs
}
func (g *gateExec) Outstanding() int { return 0 }
func (g *gateExec) Shutdown() error  { return nil }

func (g *gateExec) submitted() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]string, len(g.msgs))
	for i, m := range g.msgs {
		out[i] = m.App
	}
	return out
}

// TestCancelBeforeDispatch cancels a task still waiting on a dependency: the
// future fails with the cancellation error, the descendant fails with a
// DependencyError, and nothing ever reaches the executor — resolving the
// dependency afterwards must not resurrect the launch.
func TestCancelBeforeDispatch(t *testing.T) {
	ge := newGateExec("gate")
	close(ge.gate) // open: this test must see zero submissions regardless
	d, err := New(Config{Executors: []executor.Executor{ge}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	app, err := d.PythonApp("noop", func(args []any, _ map[string]any) (any, error) { return args[0], nil })
	if err != nil {
		t.Fatal(err)
	}

	dep := future.New() // unresolved dependency keeps the task Pending
	ctx, cancel := context.WithCancel(context.Background())
	fut := app.Submit(ctx, []any{dep})
	child := app.Submit(context.Background(), []any{fut})

	cancel()
	if _, err := fut.Result(); err == nil {
		t.Fatal("canceled submission resolved")
	} else {
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("error %v does not wrap ErrCanceled", err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("error %v does not wrap context.Canceled", err)
		}
	}
	var depErr *DependencyError
	if _, err := child.Result(); !errors.As(err, &depErr) {
		t.Fatalf("descendant error = %v, want DependencyError", err)
	} else if !errors.Is(err, ErrCanceled) {
		t.Fatalf("descendant error %v does not wrap the cancellation", err)
	}

	// Resolve the dependency late: the canceled task must stay dead.
	_ = dep.SetResult("late")
	d.WaitAll()
	if got := ge.submitted(); len(got) != 0 {
		t.Fatalf("canceled task reached the executor: %v", got)
	}
	if s := d.Summary(); s["failed"] != 2 || concluded(d) != 2 {
		t.Fatalf("summary = %v, want the canceled task and its descendant failed", s)
	}
}

// TestCancelWhileQueuedInLane parks the lane runner on a gated executor,
// queues a second task behind it, cancels that task, and verifies the lane
// drops it on the floor: only the blocker is ever submitted.
func TestCancelWhileQueuedInLane(t *testing.T) {
	ge := newGateExec("gate")
	d, err := New(Config{Executors: []executor.Executor{ge}})
	if err != nil {
		t.Fatal(err)
	}
	app, err := d.PythonApp("noop", func(args []any, _ map[string]any) (any, error) { return args[0], nil })
	if err != nil {
		t.Fatal(err)
	}

	blocker := app.Call("blocker")
	<-ge.entered // lane runner is now parked inside SubmitBatch

	ctx, cancel := context.WithCancel(context.Background())
	victim := app.Submit(ctx, []any{"victim"})
	// Wait for the victim to be routed into the lane (queued counts the
	// blocker until its SubmitBatch returns, so the lane shows 2).
	waitFor(t, func() bool { return d.lanes["gate"].queued.Load() == 2 })

	cancel()
	if _, err := victim.Result(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("victim error = %v, want ErrCanceled", err)
	}

	close(ge.gate)
	if _, err := blocker.Result(); err != nil {
		t.Fatal(err)
	}
	d.WaitAll()
	if err := d.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if got := ge.submitted(); len(got) != 1 || got[0] != "noop" {
		t.Fatalf("submitted = %v, want only the blocker", got)
	}
}

// TestCancelAfterCompletion verifies canceling a finished task is a no-op:
// the resolved value and terminal state are untouched.
func TestCancelAfterCompletion(t *testing.T) {
	d := newDFK(t, nil)
	app, err := d.PythonApp("echo", func(args []any, _ map[string]any) (any, error) { return args[0], nil })
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	fut := app.Submit(ctx, []any{42})
	v, err := fut.Result()
	if err != nil || v != 42 {
		t.Fatalf("Result = %v, %v", v, err)
	}
	cancel()
	if v, err := fut.Result(); err != nil || v != 42 {
		t.Fatalf("after cancel: Result = %v, %v (must be unchanged)", v, err)
	}
	if s := d.Summary(); s["done"] != 1 || concluded(d) != 1 {
		t.Fatalf("summary = %v, want the one task done", s)
	}
	// The AfterFunc watcher is stopped by retirement, but exercise cancelTask
	// directly too: it must refuse a terminal task. The DFK recycled its own
	// record, so the task here is one concluded by hand.
	rec, _ := task.Create(1<<40, "echo", nil, task.Options{})
	defer rec.Exit()
	_ = rec.SetState(task.Launched)
	if _, ok := rec.Finish(task.Done); !ok {
		t.Fatal("hand-made task did not conclude")
	}
	if d.cancelTask(rec, ErrCanceled); rec.State() != task.Done || rec.Future.Done() {
		t.Fatalf("cancelTask changed a terminal task: state %v, future settled %v", rec.State(), rec.Future.Done())
	}
	if s := d.Summary(); s["failed"] != 0 || concluded(d) != 1 {
		t.Fatalf("summary = %v after cancelTask on a terminal task", s)
	}
}

// TestCancelAfterLaunchDropsThreadpoolWork cancels a task that already
// crossed the submission boundary into a threadpool input queue: the
// executor-side cancel drops it before a worker picks it up, so the app
// function never runs.
func TestCancelAfterLaunchDropsThreadpoolWork(t *testing.T) {
	reg := serialize.NewRegistry()
	tp := threadpool.New("tp", 1, reg)
	store := monitor.NewStore()
	d, err := New(Config{Registry: reg, Executors: []executor.Executor{tp}, Monitor: store})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()

	release := make(chan struct{})
	var ran atomic.Int64
	block, err := d.PythonApp("block", func([]any, map[string]any) (any, error) {
		<-release
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	count, err := d.PythonApp("count", func([]any, map[string]any) (any, error) {
		ran.Add(1)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	blocker := block.Call()
	ctx, cancel := context.WithCancel(context.Background())
	victim := count.Submit(ctx, nil)
	// Both tasks submitted: the blocker occupies the only worker, the victim
	// sits in the threadpool's input queue.
	waitFor(t, func() bool { return tp.Outstanding() == 2 })
	waitFor(t, func() bool { return len(launches(store)[victim.TaskID]) == 1 })

	cancel()
	if _, err := victim.Result(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("victim error = %v, want ErrCanceled", err)
	}
	// A canceled future settles before the executor is told to drop the work
	// (cancelTask must fail the task first, or the drop would read as an
	// attempt failure and retry): wait for the claim before freeing the worker.
	waitFor(t, func() bool { return tp.Outstanding() == 1 })
	close(release)
	if _, err := blocker.Result(); err != nil {
		t.Fatal(err)
	}
	d.WaitAll()
	waitFor(t, func() bool { return tp.Outstanding() == 0 })
	if n := ran.Load(); n != 0 {
		t.Fatalf("canceled task ran %d times", n)
	}
}

// TestPriorityDispatchOrder backs up a lane behind a gated executor, submits
// tasks with distinct priorities, and verifies the lane dispatches them
// highest-priority-first (ties in submission order), not FIFO.
func TestPriorityDispatchOrder(t *testing.T) {
	ge := newGateExec("gate")
	d, err := New(Config{Executors: []executor.Executor{ge}})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string) *App {
		app, err := d.PythonApp(name, func([]any, map[string]any) (any, error) { return name, nil })
		if err != nil {
			t.Fatal(err)
		}
		return app
	}
	blocker, low, mid, high := mk("blocker"), mk("low"), mk("mid"), mk("high")

	bf := blocker.Call()
	<-ge.entered // lane runner parked; everything below queues in the lane

	ctx := context.Background()
	lf := low.Submit(ctx, nil, WithPriority(1))
	hf := high.Submit(ctx, nil, WithPriority(10))
	mf := mid.Submit(ctx, nil, WithPriority(5))
	waitFor(t, func() bool { return d.lanes["gate"].queued.Load() == 4 })
	// Loads reports what the router decides from: the executor's own count
	// plus the lane backlog it cannot see yet.
	if got, want := d.Loads()[0].Outstanding, ge.Outstanding()+int(d.lanes["gate"].queued.Load()); got != want {
		t.Fatalf("Loads()[0].Outstanding = %d, want executor + lane backlog = %d", got, want)
	}

	close(ge.gate)
	for _, f := range []*future.Future{bf, lf, mf, hf} {
		if _, err := f.Result(); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Shutdown(); err != nil {
		t.Fatal(err)
	}
	got := ge.submitted()
	want := []string{"blocker", "high", "mid", "low"}
	if len(got) != len(want) {
		t.Fatalf("submitted = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("submitted = %v, want %v (high priority must dispatch first)", got, want)
		}
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
