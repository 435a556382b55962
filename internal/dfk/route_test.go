package dfk

import (
	"bytes"
	"errors"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/executor"
	"repro/internal/future"
	"repro/internal/health"
	"repro/internal/monitor"
	"repro/internal/sched"
	"repro/internal/serialize"
)

// goroutineID is the calling goroutine's id, read off its stack header.
func goroutineID() int64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, err := strconv.ParseInt(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// goroutineSched picks the first candidate and records the goroutine each
// pick ran on.
type goroutineSched struct {
	mu   sync.Mutex
	gids []int64
}

func (s *goroutineSched) Name() string { return "goroutine" }

func (s *goroutineSched) Pick(c []executor.Executor) (executor.Executor, error) {
	s.mu.Lock()
	s.gids = append(s.gids, goroutineID())
	s.mu.Unlock()
	return c[0], nil
}

func (s *goroutineSched) picks() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int64(nil), s.gids...)
}

// TestRouteRunsWhereTaskBecomesReady: a task is routed on the goroutine that
// made it ready — a task without inputs on its submitter, a dependent on the
// goroutine that resolved its last input — with no routing goroutine between.
func TestRouteRunsWhereTaskBecomesReady(t *testing.T) {
	s := &goroutineSched{}
	d := newDFK(t, func(c *Config) { c.Scheduler = s })
	echo, err := d.PythonApp("echo", func(args []any, _ map[string]any) (any, error) { return args[0], nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := echo.Call(1).Result(); err != nil {
		t.Fatal(err)
	}
	if got, want := s.picks(), goroutineID(); len(got) != 1 || got[0] != want {
		t.Fatalf("ready task picked on goroutines %v, want [%d] (the submitter)", got, want)
	}

	in := future.New()
	dep := echo.Call(in)
	if got := s.picks(); len(got) != 1 {
		t.Fatalf("dependent routed before its input resolved: picks on %v", got)
	}
	resolver := make(chan int64)
	go func() {
		resolver <- goroutineID()
		_ = in.SetResult(2)
	}()
	want := <-resolver
	if v, err := dep.Result(); err != nil || v != 2 {
		t.Fatalf("dependent = %v, %v; want 2", v, err)
	}
	if got := s.picks(); len(got) != 2 || got[1] != want {
		t.Fatalf("dependent picked on goroutines %v, want %d (its input's resolver) second", got, want)
	}
}

// errSched refuses every pick.
type errSched struct{}

var errNoPick = errors.New("no pick for you")

func (errSched) Name() string { return "refusing" }
func (errSched) Pick([]executor.Executor) (executor.Executor, error) {
	return nil, errNoPick
}

// TestSchedulerErrorFailsBeforeSubmitReturns: routing runs inside Submit, so
// a scheduler error has failed the task by the time Submit returns.
func TestSchedulerErrorFailsBeforeSubmitReturns(t *testing.T) {
	d := newDFK(t, func(c *Config) { c.Scheduler = errSched{} })
	noop, err := d.PythonApp("noop", func([]any, map[string]any) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	f := noop.Call()
	if !f.Done() {
		t.Fatal("future still pending when Submit returned")
	}
	if !errors.Is(f.Err(), errNoPick) {
		t.Fatalf("err = %v, want the scheduler's", f.Err())
	}
	d.WaitAll()
}

// stackSink records, for each backoff event, the goroutine that emitted it
// and how deep its stack was.
type stackSink struct {
	mu     sync.Mutex
	gids   []int64
	depths []int
}

func (s *stackSink) Emit(e monitor.Event) {
	if e.Kind != monitor.KindHealth || e.Detail == "breaker" {
		return
	}
	pcs := make([]uintptr, 4096)
	depth := runtime.Callers(1, pcs)
	s.mu.Lock()
	s.gids = append(s.gids, goroutineID())
	s.depths = append(s.depths, depth)
	s.mu.Unlock()
}

func (s *stackSink) Close() error { return nil }

// TestRoutingFailureNeverReroutesSynchronously: with every breaker open and
// overload retries free and without backoff, an attempt routing cannot place
// is routed again from a timer, never on the stack it failed on — otherwise
// each free retry would nest one call deeper inside Submit. Submit returns
// after one failed routing, and the task then either runs once a breaker
// half-opens or fails when its free overload budget runs out.
func TestRoutingFailureNeverReroutesSynchronously(t *testing.T) {
	sink := &stackSink{}
	d := newDFK(t, func(c *Config) {
		c.Monitor = sink
		c.Health = &health.Options{
			Seed:    5,
			Breaker: health.BreakerConfig{Window: 1, MinSamples: 1, OpenFor: 20 * time.Millisecond},
			Policies: map[health.Class]health.Policy{
				health.ClassOverload: {MaxFree: 1 << 20, Failover: true},
			},
		}
	})
	for _, v := range d.views {
		v.(*lane).breaker.Record(false)
	}
	noop, err := d.PythonApp("noop", func([]any, map[string]any) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	submitter := goroutineID()
	f := noop.Call()
	select {
	case <-f.DoneChan():
	case <-time.After(10 * time.Second):
		t.Fatal("task never settled")
	}
	if err := f.Err(); err != nil && !errors.Is(err, health.ErrNoHealthyExecutor) {
		t.Fatalf("err = %v, want success or the overload", err)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.depths) == 0 {
		t.Fatal("no backoff event: the task was never parked")
	}
	onSubmitter := 0
	for i, gid := range sink.gids {
		if gid == submitter {
			onSubmitter++
		}
		if sink.depths[i] > sink.depths[0] {
			t.Errorf("backoff %d ran %d frames deep, deeper than the first (%d): retries nest", i, sink.depths[i], sink.depths[0])
		}
	}
	if onSubmitter > 1 {
		t.Fatalf("%d of %d backoffs ran on the submitter's goroutine, want at most 1", onSubmitter, len(sink.gids))
	}
}

// TestRoutingFailureWaitsForHalfOpen: with every breaker open and overload
// retries free and without backoff, an attempt routing cannot place waits for
// the earliest breaker to half-open, instead of spending its free overload
// retries on zero-delay re-routes long before any breaker admits a probe. The
// task runs as the half-open probe after a few backoffs at most.
func TestRoutingFailureWaitsForHalfOpen(t *testing.T) {
	store := monitor.NewStore()
	d := newDFK(t, func(c *Config) {
		c.Retries = 0
		c.Monitor = store
		c.Health = &health.Options{
			Seed:    5,
			Breaker: health.BreakerConfig{Window: 1, MinSamples: 1, OpenFor: 20 * time.Millisecond},
			Policies: map[health.Class]health.Policy{
				health.ClassOverload: {MaxFree: 1 << 20, Failover: true},
			},
		}
	})
	for _, v := range d.views {
		v.(*lane).breaker.Record(false)
	}
	noop, err := d.PythonApp("noop", func([]any, map[string]any) (any, error) { return "ran", nil })
	if err != nil {
		t.Fatal(err)
	}
	if v, err := noop.Call().Result(); err != nil || v != "ran" {
		t.Fatalf("task = %v, %v; want it run through the half-open probe", v, err)
	}
	if n := len(healthEvents(store, "backoff class=overload")); n > 3 {
		t.Fatalf("%d overload backoffs before the breaker half-opened, want at most 3", n)
	}
}

// TestRoutingFailureWaitsForProbe: a task whose only candidate is half-open
// with its one probe slot reserved waits for a re-check instead of spinning
// through its free overload retries from zero-delay timers: submitted while
// the probe runs, it succeeds once the probe has closed the breaker.
func TestRoutingFailureWaitsForProbe(t *testing.T) {
	d := newDFK(t, func(c *Config) {
		c.Retries = 0
		c.Health = &health.Options{
			Seed:    5,
			Breaker: health.BreakerConfig{Window: 1, MinSamples: 1, OpenFor: 20 * time.Millisecond, HalfOpenProbes: 1},
			Policies: map[health.Class]health.Policy{
				health.ClassOverload: {MaxFree: 1 << 20, Failover: true},
			},
		}
	})
	b := d.views[0].(*lane).breaker
	b.Record(false)
	slow, err := d.PythonApp("slow", func([]any, map[string]any) (any, error) {
		time.Sleep(100 * time.Millisecond)
		return "ran", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	probe := slow.Call()
	deadline := time.Now().Add(2 * time.Second)
	for b.State() != health.BreakerHalfOpen {
		if time.Now().After(deadline) {
			t.Fatalf("breaker still %v: the first task never became the probe", b.State())
		}
		time.Sleep(time.Millisecond)
	}
	waiter := slow.Call()
	for i, f := range []*future.Future{probe, waiter} {
		if v, err := f.Result(); err != nil || v != "ran" {
			t.Fatalf("task %d = %v, %v; want both run, the second after the probe", i, v, err)
		}
	}
}

// TestTenantBacklogPollStrandsNoTask: polling TenantBacklog while tasks are
// routed must not take an attempt out of a lane's inbox behind the runner's
// back — the runner would spend the wake-up token that announced it, park,
// and leave the attempt stranded. Tasks go one at a time, so the runner parks
// between them and each push lands in the inbox while another goroutine polls
// the backlog.
func TestTenantBacklogPollStrandsNoTask(t *testing.T) {
	d := newDFK(t, nil)
	noop, err := d.PythonApp("noop", func([]any, map[string]any) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				d.TenantBacklog()
			}
		}
	}()
	defer func() { close(stop); wg.Wait() }()
	for i := 0; i < 3000; i++ {
		f := noop.Call()
		select {
		case <-f.DoneChan():
		case <-time.After(5 * time.Second):
			// One more push wakes the lane, so Shutdown can drain it.
			noop.Call()
			t.Fatalf("task %d stranded in its lane", i)
		}
	}
}

// holdExec completes every task it is handed, but only once its gate opens.
type holdExec struct {
	label string
	gate  chan struct{}
}

func (h *holdExec) Label() string    { return h.label }
func (h *holdExec) Start() error     { return nil }
func (h *holdExec) Outstanding() int { return 0 }
func (h *holdExec) Shutdown() error  { return nil }
func (h *holdExec) Submit(msg serialize.TaskMsg) *future.Future {
	<-h.gate
	return future.Completed(nil)
}

// TestLeastOutstandingSpreadsConcurrentPicks: picks run at once on many
// submitters, and each counts its task in its lane right after it picks, so
// least-outstanding spreads a burst from concurrent submitters over two idle
// executors instead of herding it onto one. Both executors hold their first
// task, so every routed task stays counted in its lane's load.
func TestLeastOutstandingSpreadsConcurrentPicks(t *testing.T) {
	a := &holdExec{label: "a", gate: make(chan struct{})}
	b := &holdExec{label: "b", gate: make(chan struct{})}
	d, err := New(Config{Executors: []executor.Executor{a, b}, Scheduler: sched.NewLeastOutstanding()})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	release := sync.OnceFunc(func() { close(a.gate); close(b.gate) })
	defer release() // before Shutdown, which waits for the held lane runners
	noop, err := d.PythonApp("noop", func([]any, map[string]any) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	const submitters, each = 8, 64
	futs := make([][]*future.Future, submitters)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for s := range futs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for range each {
				futs[s] = append(futs[s], noop.Call())
			}
		}()
	}
	close(start)
	wg.Wait()
	loads := d.Loads()
	na, nb := loads[0].Outstanding, loads[1].Outstanding
	if na+nb != submitters*each {
		t.Fatalf("loads %d + %d, want %d routed tasks", na, nb, submitters*each)
	}
	// A pick can miss only the picks running beside it, so the split is off
	// by at most one per submitter.
	if diff := na - nb; diff > submitters || diff < -submitters {
		t.Fatalf("least-outstanding split %d/%d across idle executors, want within %d", na, nb, submitters)
	}
	release()
	for _, fs := range futs {
		if err := future.Wait(fs...); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLoadAwarePickAllocatesNothing: a load-aware policy reads every
// candidate lane's live load for every task it routes, so that read — an
// executor's digest probe included — allocates nothing.
func TestLoadAwarePickAllocatesNothing(t *testing.T) {
	warm := holdingExec{&faultExec{label: "warm", fail: func(int) error { return nil }}}
	d := newDFK(t, func(c *Config) { c.Executors = append(c.Executors, warm) })
	lo, loc := sched.NewLeastOutstanding(), sched.NewLocality()
	picks := map[string]func(){
		"least-outstanding": func() { _, _ = lo.Pick(d.views) },
		"locality":          func() { _, _ = loc.PickDigest(d.views, "digest") },
	}
	for name, pick := range picks {
		if n := testing.AllocsPerRun(100, pick); n != 0 {
			t.Errorf("%s pick allocates %.1f times", name, n)
		}
	}
}
