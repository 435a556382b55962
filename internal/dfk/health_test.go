package dfk

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/executor"
	"repro/internal/executor/threadpool"
	"repro/internal/future"
	"repro/internal/health"
	"repro/internal/monitor"
	"repro/internal/sched"
	"repro/internal/serialize"
)

// faultExec is a scriptable executor: fail decides, per submission ordinal,
// whether the attempt fails (returning the error to inject) or succeeds.
type faultExec struct {
	label string
	mu    sync.Mutex
	n     int
	fail  func(n int) error
}

func (f *faultExec) Label() string    { return f.label }
func (f *faultExec) Start() error     { return nil }
func (f *faultExec) Outstanding() int { return 0 }
func (f *faultExec) Shutdown() error  { return nil }

func (f *faultExec) submissions() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

func (f *faultExec) Submit(msg serialize.TaskMsg) *future.Future {
	f.mu.Lock()
	f.n++
	n := f.n
	f.mu.Unlock()
	if err := f.fail(n); err != nil {
		return future.FromError(err)
	}
	fut := future.NewForTask(msg.ID)
	_ = fut.SetResult("ok")
	return fut
}

func executorHealth(t *testing.T, d *DFK, label string) string {
	t.Helper()
	l := d.lanes[label]
	if l == nil || l.breaker == nil {
		t.Fatalf("no breaker for executor %q", label)
	}
	return l.breaker.State().String()
}

func healthEvents(store *monitor.Store, detail string) []monitor.Event {
	var out []monitor.Event
	for _, e := range store.Events(monitor.KindHealth) {
		if strings.Contains(e.Detail, detail) {
			out = append(out, e)
		}
	}
	return out
}

// TestHealthFreeRetriesForgiveTransientFaults: with the plane on, a
// transient-wire injection does not consume the retry budget — a task with
// Retries=0 still completes once the fault stops firing.
func TestHealthFreeRetriesForgiveTransientFaults(t *testing.T) {
	restore := chaos.Enable(chaos.New(5, chaos.Plan{
		{Point: chaos.PointSubmitFail, Act: chaos.ActFailClass, Class: "transient-wire", Prob: 1, Max: 2},
	}))
	defer restore()
	store := monitor.NewStore()
	d := newDFK(t, func(c *Config) {
		c.Retries = 0
		c.Monitor = store
		c.Health = &health.Options{Seed: 5}
	})
	app, err := d.PythonApp("t", func(args []any, _ map[string]any) (any, error) { return "done", nil })
	if err != nil {
		t.Fatal(err)
	}
	v, err := app.Call().Result()
	if err != nil {
		t.Fatalf("task failed despite free transient retries: %v", err)
	}
	if v != "done" {
		t.Fatalf("v = %v", v)
	}
	if ev := healthEvents(store, "backoff class=transient-wire"); len(ev) != 2 {
		t.Fatalf("backoff events = %d, want 2: %+v", len(ev), ev)
	}
}

// TestHealthQuarantineAfterDistinctKills: an attempt chain that loses a
// distinct manager on every launch is quarantined at the configured bar with
// the full kill history, regardless of remaining retry budget.
func TestHealthQuarantineAfterDistinctKills(t *testing.T) {
	sick := &faultExec{label: "sick", fail: func(n int) error {
		return &executor.LostError{TaskID: int64(n), Detail: "killed mid-task", Manager: fmt.Sprintf("m%d", n)}
	}}
	store := monitor.NewStore()
	d := newDFK(t, func(c *Config) {
		c.Executors = []executor.Executor{sick}
		c.Retries = 100
		c.Monitor = store
		c.Health = &health.Options{Seed: 2} // QuarantineAfter defaults to 3
	})
	app, err := d.PythonApp("poison", func(args []any, _ map[string]any) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	_, err = app.Call().Result()
	if err == nil {
		t.Fatal("poison task succeeded")
	}
	var qe *health.QuarantineError
	if !errors.As(err, &qe) {
		t.Fatalf("error is not a QuarantineError: %v", err)
	}
	if len(qe.Kills) != 3 {
		t.Fatalf("kill history = %v, want 3 distinct managers", qe.Kills)
	}
	var le *executor.LostError
	if !errors.As(err, &le) {
		t.Fatalf("quarantine does not unwrap to the last LostError: %v", err)
	}
	if n := sick.submissions(); n != 3 {
		t.Fatalf("launches = %d, want exactly 3 (quarantine on the third kill)", n)
	}
	if ev := healthEvents(store, "quarantine"); len(ev) != 1 {
		t.Fatalf("quarantine events = %d: %+v", len(ev), ev)
	}
}

// TestHealthBreakerOpensAndFailsOver: a persistently failing executor trips
// its breaker; class-eligible retries fail over to the healthy executor and
// every task completes.
func TestHealthBreakerOpensAndFailsOver(t *testing.T) {
	// One manager identity for every loss so the kill history never reaches
	// the quarantine bar — distinctness is what quarantine keys on.
	sick := &faultExec{label: "sick", fail: func(n int) error {
		return &executor.LostError{TaskID: int64(n), Detail: "gone", Manager: "m0"}
	}}
	store := monitor.NewStore()
	d := newDFK(t, func(c *Config) {
		reg := serialize.NewRegistry()
		c.Registry = reg
		c.Executors = []executor.Executor{sick, threadpool.New("tp", 4, reg)}
		c.SchedulerPolicy = "round-robin"
		c.Retries = 3
		c.Monitor = store
		c.Health = &health.Options{
			Seed:    7,
			Breaker: health.BreakerConfig{Window: 4, MinSamples: 2, FailureThreshold: 0.5, OpenFor: time.Minute},
		}
	})
	app, err := d.PythonApp("w", func(args []any, _ map[string]any) (any, error) { return args[0], nil })
	if err != nil {
		t.Fatal(err)
	}
	futs := make([]*future.Future, 8)
	for i := range futs {
		futs[i] = app.Call(i)
	}
	for i, f := range futs {
		v, err := f.Result()
		if err != nil {
			t.Fatalf("task %d failed instead of failing over: %v", i, err)
		}
		if v != i {
			t.Fatalf("task %d result = %v", i, v)
		}
	}
	if got := executorHealth(t, d, "sick"); got != "open" {
		t.Fatalf("sick breaker = %q, want open", got)
	}
	if got := executorHealth(t, d, "tp"); got != "closed" {
		t.Fatalf("tp breaker = %q, want closed", got)
	}
	opened := false
	for _, e := range healthEvents(store, "breaker") {
		if e.Executor == "sick" && e.From == "closed" && e.To == "open" {
			opened = true
		}
	}
	if !opened {
		t.Fatalf("no closed->open transition event for sick: %+v", store.Events(monitor.KindHealth))
	}
}

// ghostExec never settles what it is handed and records every wire id it was
// handed and every one it was told to cancel.
type ghostExec struct {
	label               string
	mu                  sync.Mutex
	submitted, canceled []int64
}

func (g *ghostExec) Label() string    { return g.label }
func (g *ghostExec) Start() error     { return nil }
func (g *ghostExec) Outstanding() int { return 0 }
func (g *ghostExec) Shutdown() error  { return nil }

func (g *ghostExec) Submit(msg serialize.TaskMsg) *future.Future {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.submitted = append(g.submitted, msg.ID)
	return future.NewForTask(msg.ID)
}

func (g *ghostExec) Cancel(wireID int64) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.canceled = append(g.canceled, wireID)
	return false
}

func (g *ghostExec) wires() (submitted, canceled []int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return slices.Clone(g.submitted), slices.Clone(g.canceled)
}

// TestTimedOutAttemptActsOnItsOwnLane: an attempt that times out on one of two
// executors cancels its wire id on that executor only, charges that
// executor's breaker only, and its non-failover retry goes back to it, though
// round-robin would pick the other next. Two charged timeouts open a's
// breaker; b's, never charged, stays closed.
func TestTimedOutAttemptActsOnItsOwnLane(t *testing.T) {
	a, b := &ghostExec{label: "a"}, &ghostExec{label: "b"}
	d := newDFK(t, func(c *Config) {
		c.Executors = []executor.Executor{a, b}
		c.SchedulerPolicy = "round-robin"
		c.Retries = 1
		c.TaskTimeout = 20 * time.Millisecond
		c.Health = &health.Options{
			Seed:    3,
			Breaker: health.BreakerConfig{Window: 2, MinSamples: 2, FailureThreshold: 1, OpenFor: time.Minute},
			Policies: map[health.Class]health.Policy{
				health.ClassTimeout: {Charge: true, Failover: false},
			},
		}
	})
	app, err := d.PythonApp("w", func([]any, map[string]any) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Call().Result(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want the second attempt's timeout", err)
	}
	aSub, aCan := a.wires()
	bSub, bCan := b.wires()
	if len(aSub) != 2 || len(bSub) != 0 {
		t.Fatalf("submitted: a %v, b %v; want both attempts on a (retry affinity)", aSub, bSub)
	}
	if !slices.Equal(aCan, aSub) || len(bCan) != 0 {
		t.Fatalf("canceled: a %v, b %v; want a's own wire ids %v on a only", aCan, bCan, aSub)
	}
	if got := executorHealth(t, d, "a"); got != "open" {
		t.Fatalf("a breaker = %q after two timeouts, want open", got)
	}
	if got := executorHealth(t, d, "b"); got != "closed" {
		t.Fatalf("b breaker = %q, want closed: b ran nothing", got)
	}
}

// holdingExec is a faultExec that claims to hold every input digest, so the
// locality policy prefers it whenever the router lets it through.
type holdingExec struct{ *faultExec }

func (holdingExec) HoldsDigest(string) bool { return true }

// TestLocalitySkipsOpenBreakerHolder: with the health plane and the locality
// policy both on, a digest holder whose breaker is open never reaches the
// policy — the router filters it out first — so every pick falls back to the
// other executor, though only the holder claims the task's input.
func TestLocalitySkipsOpenBreakerHolder(t *testing.T) {
	warm := holdingExec{&faultExec{label: "warm", fail: func(n int) error {
		return &executor.LostError{TaskID: int64(n), Detail: "gone", Manager: "m0"}
	}}}
	d := newDFK(t, func(c *Config) {
		reg := serialize.NewRegistry()
		c.Registry = reg
		c.Executors = []executor.Executor{warm, threadpool.New("tp", 2, reg)}
		c.SchedulerPolicy = "locality"
		c.Retries = 3
		c.Health = &health.Options{
			Seed:    13,
			Breaker: health.BreakerConfig{Window: 4, MinSamples: 2, FailureThreshold: 0.5, OpenFor: time.Minute},
		}
	})
	app, err := d.PythonApp("w", func(args []any, _ map[string]any) (any, error) { return args[0], nil })
	if err != nil {
		t.Fatal(err)
	}
	call := func(i int) {
		t.Helper()
		if v, err := app.Call(i).Result(); err != nil || v != i {
			t.Fatalf("task %d = %v, %v", i, v, err)
		}
	}
	// The holder wins the first picks and fails them until its breaker
	// opens; the retries fail over to tp.
	for i := 0; executorHealth(t, d, "warm") != "open"; i++ {
		if i == 8 {
			t.Fatal("holder breaker never opened")
		}
		call(i)
	}
	launched := warm.submissions()
	_, missesBefore := d.Scheduler().(*sched.Locality).Stats()
	const n = 8
	for i := 0; i < n; i++ {
		call(100 + i)
	}
	if got := warm.submissions(); got != launched {
		t.Fatalf("open-breaker holder got %d more launches", got-launched)
	}
	if _, misses := d.Scheduler().(*sched.Locality).Stats(); misses-missesBefore != n {
		t.Fatalf("locality misses grew by %d over %d picks, want every pick a miss", misses-missesBefore, n)
	}
}

// TestHealthPinnedParkAndRecover: a task pinned to an executor whose breaker
// opens parks under overload backoff instead of failing, then completes
// through the half-open probe once the executor recovers.
func TestHealthPinnedParkAndRecover(t *testing.T) {
	sick := &faultExec{label: "sick", fail: func(n int) error {
		if n <= 2 {
			return &executor.LostError{TaskID: int64(n), Detail: "gone", Manager: "m0"}
		}
		return nil
	}}
	store := monitor.NewStore()
	d := newDFK(t, func(c *Config) {
		reg := serialize.NewRegistry()
		c.Registry = reg
		c.Executors = []executor.Executor{sick, threadpool.New("tp", 2, reg)}
		c.Monitor = store
		c.Health = &health.Options{
			Seed:    11,
			Breaker: health.BreakerConfig{Window: 4, MinSamples: 2, FailureThreshold: 0.5, OpenFor: 50 * time.Millisecond, HalfOpenProbes: 1},
		}
	})
	app, err := d.PythonApp("pinned", func(args []any, _ map[string]any) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Submit(context.Background(), nil, WithExecutor("sick")).Result(); err != nil {
		t.Fatalf("pinned task failed instead of parking through the open window: %v", err)
	}
	if got := executorHealth(t, d, "sick"); got != "closed" {
		t.Fatalf("sick breaker = %q after probe success, want closed", got)
	}
	if ev := healthEvents(store, "backoff class=overload"); len(ev) == 0 {
		t.Fatal("no overload backoff events: the pinned task never parked")
	}
	var seq []string
	for _, e := range healthEvents(store, "breaker") {
		if e.Executor == "sick" {
			seq = append(seq, e.From+"->"+e.To)
		}
	}
	want := []string{"closed->open", "open->half-open", "half-open->closed"}
	if len(seq) != len(want) {
		t.Fatalf("transition sequence = %v, want %v", seq, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("transition[%d] = %q, want %q", i, seq[i], want[i])
		}
	}
}

// TestHealthPinnedFailFast: with PinnedFailFast set, a task pinned to an
// open-circuit executor fails immediately instead of parking.
func TestHealthPinnedFailFast(t *testing.T) {
	sick := &faultExec{label: "sick", fail: func(n int) error {
		return &executor.LostError{TaskID: int64(n), Detail: "gone", Manager: "m0"}
	}}
	d := newDFK(t, func(c *Config) {
		reg := serialize.NewRegistry()
		c.Registry = reg
		c.Executors = []executor.Executor{sick, threadpool.New("tp", 2, reg)}
		c.SchedulerPolicy = "round-robin"
		c.Retries = 3
		c.Health = &health.Options{
			Seed:           13,
			PinnedFailFast: true,
			Breaker:        health.BreakerConfig{Window: 4, MinSamples: 2, FailureThreshold: 0.5, OpenFor: time.Minute},
		}
	})
	app, err := d.PythonApp("ff", func(args []any, _ map[string]any) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	// Trip sick's breaker with unpinned tasks (they fail over and complete).
	futs := make([]*future.Future, 6)
	for i := range futs {
		futs[i] = app.Call()
	}
	for i, f := range futs {
		if _, err := f.Result(); err != nil {
			t.Fatalf("opener task %d failed: %v", i, err)
		}
	}
	if got := executorHealth(t, d, "sick"); got != "open" {
		t.Fatalf("sick breaker = %q, want open", got)
	}
	_, err = app.Submit(context.Background(), nil, WithExecutor("sick")).Result()
	if err == nil {
		t.Fatal("pinned task succeeded against an open breaker under fail-fast")
	}
	if !strings.Contains(err.Error(), "fail-fast") {
		t.Fatalf("error does not name the fail-fast policy: %v", err)
	}
}

// TestHealthBackoffScheduleDeterministic: two runs with identical seeds see
// byte-identical backoff schedules in the monitor stream.
func TestHealthBackoffScheduleDeterministic(t *testing.T) {
	run := func() []time.Duration {
		restore := chaos.Enable(chaos.New(21, chaos.Plan{
			{Point: chaos.PointSubmitFail, Act: chaos.ActFailClass, Class: "transient-wire", Prob: 1, Max: 3},
		}))
		defer restore()
		store := monitor.NewStore()
		d := newDFK(t, func(c *Config) {
			c.Monitor = store
			c.Health = &health.Options{Seed: 9}
		})
		app, err := d.PythonApp("det", func(args []any, _ map[string]any) (any, error) { return nil, nil })
		if err != nil {
			t.Fatal(err)
		}
		if _, err := app.Call().Result(); err != nil {
			t.Fatal(err)
		}
		if err := d.Shutdown(); err != nil {
			t.Fatal(err)
		}
		var delays []time.Duration
		for _, e := range healthEvents(store, "backoff") {
			delays = append(delays, e.Duration)
		}
		return delays
	}
	a, b := run(), run()
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("schedule lengths = %d, %d, want 3 each", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delay[%d]: %v != %v across identically-seeded runs", i, a[i], b[i])
		}
	}
}

// TestHealthCancelWhileParked: a task cancelled while its retry is parked for
// backoff fails with ErrCanceled at once; Shutdown does not wait out the
// backoff; and when the timer fires afterwards it finds a concluded task —
// the body never runs again and the parked payload reference is dropped
// exactly once (the payload pool panics on an over-release).
func TestHealthCancelWhileParked(t *testing.T) {
	slow := health.Policy{Charge: true, Base: 600 * time.Millisecond, Max: 600 * time.Millisecond, Failover: true}
	store := monitor.NewStore()
	d := newDFK(t, func(c *Config) {
		c.Retries = 2
		c.Monitor = store
		c.Health = &health.Options{Seed: 3, Policies: map[health.Class]health.Policy{
			health.ClassUnknown: slow, health.ClassTaskFault: slow,
		}}
	})
	var runs atomic.Int64
	app, err := d.PythonApp("flaky", func([]any, map[string]any) (any, error) {
		runs.Add(1)
		return nil, errors.New("first attempt fails")
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fut := app.Submit(ctx, []any{"arg"})

	var parked []monitor.Event
	for deadline := time.Now().Add(5 * time.Second); len(parked) == 0; parked = healthEvents(store, "backoff") {
		if time.Now().After(deadline) {
			t.Fatal("first attempt never reached its backoff")
		}
		time.Sleep(time.Millisecond)
	}
	// The timer is armed after the event is stamped, so it fires no earlier
	// than this.
	fires := parked[0].At.Add(parked[0].Duration)
	if parked[0].Duration < 200*time.Millisecond {
		t.Fatalf("backoff = %v, want ≥ 200ms for the test to mean anything", parked[0].Duration)
	}

	cancel()
	if _, err := fut.Result(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if err := d.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if now := time.Now(); !now.Before(fires) {
		t.Fatalf("cancel + Shutdown outlasted the backoff by %v", now.Sub(fires))
	}

	time.Sleep(time.Until(fires) + 100*time.Millisecond)
	if n := runs.Load(); n != 1 {
		t.Fatalf("body ran %d times, want 1", n)
	}
}
