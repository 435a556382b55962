package dfk

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/executor"
	"repro/internal/executor/htex"
	"repro/internal/executor/threadpool"
	"repro/internal/future"
	"repro/internal/monitor"
	"repro/internal/provider"
	"repro/internal/serialize"
)

// TestConcurrentSubmissionMixedDeps hammers App.Call from many goroutines
// with a mix of no-dep tasks, future dependencies, file-staging dependencies
// (which lazily register the hidden stage-in app — the Lookup/Register race
// fixed by RegisterIfAbsent), and failing dependency chains. Run under
// -race in CI. Afterwards every task must be terminal and the sharded
// graph's per-shard counts must sum to the task total.
func TestConcurrentSubmissionMixedDeps(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("payload:" + r.URL.Path))
	}))
	defer srv.Close()

	dm, err := data.NewManager(filepath.Join(t.TempDir(), "work"))
	if err != nil {
		t.Fatal(err)
	}
	reg := serialize.NewRegistry()
	d, err := New(Config{
		Seed:     1,
		Registry: reg,
		Executors: []executor.Executor{
			threadpool.New("tp-a", 4, reg),
			threadpool.New("tp-b", 4, reg),
		},
		DataManager: dm,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()

	mustApp := func(name string, fn serialize.Fn) *App {
		a, err := d.PythonApp(name, fn)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	echo := mustApp("echo", func(args []any, _ map[string]any) (any, error) {
		return args[0], nil
	})
	sum := mustApp("sum", func(args []any, _ map[string]any) (any, error) {
		total := 0
		for _, a := range args {
			total += a.(int)
		}
		return total, nil
	})
	readFile := mustApp("readfile", func(args []any, _ map[string]any) (any, error) {
		f := args[0].(*data.File)
		b, err := os.ReadFile(f.LocalPath())
		if err != nil {
			return nil, err
		}
		return string(b), nil
	})
	boom := mustApp("boom", func([]any, map[string]any) (any, error) {
		return nil, errors.New("boom")
	})

	const goroutines = 16
	const perG = 20
	var wg sync.WaitGroup
	futs := make([][]*future.Future, goroutines)
	wantErr := make([][]bool, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var prev *future.Future
			for i := 0; i < perG; i++ {
				var f *future.Future
				expectErr := false
				switch i % 5 {
				case 0: // no dependencies
					f = echo.Call(i)
				case 1: // future dependency on the previous task
					if prev == nil {
						prev = future.Completed(1)
					}
					f = sum.Call(prev, 10)
				case 2: // file-staging dependency, unique file per task
					url := fmt.Sprintf("%s/g%d/i%d.dat", srv.URL, g, i)
					f = readFile.Call(data.MustFile(url))
				case 3: // chain of two futures
					a := echo.Call(g)
					f = sum.Call(a, echo.Call(i))
				default: // failing task plus a dependent that must see the failure
					bad := boom.Call()
					f = sum.Call(bad, 1)
					expectErr = true
				}
				futs[g] = append(futs[g], f)
				wantErr[g] = append(wantErr[g], expectErr)
				if !expectErr {
					prev = f
				}
			}
		}(g)
	}
	wg.Wait()
	d.WaitAll()

	for g := range futs {
		for i, f := range futs[g] {
			_, err := f.Result()
			if wantErr[g][i] {
				var de *DependencyError
				if err == nil {
					t.Fatalf("g%d/i%d: dependent of failing task succeeded", g, i)
				}
				if !errors.As(err, &de) {
					t.Fatalf("g%d/i%d: err = %v, want DependencyError", g, i, err)
				}
			} else if err != nil {
				t.Fatalf("g%d/i%d: %v", g, i, err)
			}
		}
	}

	d.WaitAll()
	if n := concluded(d); n < goroutines*perG {
		t.Fatalf("%d tasks concluded, want >= %d", n, goroutines*perG)
	}
	if d.Outstanding() != 0 {
		t.Fatalf("outstanding = %d", d.Outstanding())
	}
}

// TestLeastOutstandingPolicyRoutesAroundBusyExecutor proves the
// capacity-aware policy is selectable from config and actually avoids a
// loaded executor: pool A is plugged with blocked tasks, so every unhinted
// task must land on pool B.
func TestLeastOutstandingPolicyRoutesAroundBusyExecutor(t *testing.T) {
	reg := serialize.NewRegistry()
	store := monitor.NewStore()
	a := threadpool.New("pool-a", 1, reg)
	b := threadpool.New("pool-b", 1, reg)
	d, err := New(Config{
		Registry:        reg,
		Executors:       []executor.Executor{a, b},
		SchedulerPolicy: "least-outstanding",
		Monitor:         store, // the test reads where each task launched
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	if d.Scheduler().Name() != "least-outstanding" {
		t.Fatalf("scheduler = %s", d.Scheduler().Name())
	}

	release := make(chan struct{})
	quick, err := d.PythonApp("quick", func(args []any, _ map[string]any) (any, error) {
		return args[0], nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Plug pool A: 6 blocked tasks pinned there (1 running, 5 queued).
	const plugged = 6
	var blocked []*future.Future
	blockA, err := d.PythonApp("block-a", func([]any, map[string]any) (any, error) {
		<-release
		return nil, nil
	}, WithExecutors("pool-a"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < plugged; i++ {
		blocked = append(blocked, blockA.Call())
	}
	deadline := time.Now().Add(5 * time.Second)
	for a.Outstanding() < plugged {
		if time.Now().After(deadline) {
			t.Fatalf("pool-a outstanding = %d, want %d", a.Outstanding(), plugged)
		}
		time.Sleep(time.Millisecond)
	}

	// Loads exposes the same signals the scheduler routes by, in config
	// order.
	loads := d.Loads()
	if len(loads) != 2 || loads[0].Label != "pool-a" || loads[1].Label != "pool-b" {
		t.Fatalf("Loads = %+v", loads)
	}
	if loads[0].Outstanding < plugged || loads[0].Workers != 1 {
		t.Fatalf("pool-a load = %+v", loads[0])
	}

	var probes []*future.Future
	for i := 0; i < 4; i++ {
		probes = append(probes, quick.Call(i))
	}
	if err := future.Wait(probes...); err != nil {
		t.Fatal(err)
	}
	ran := launches(store)
	for _, f := range probes {
		if ex := ran[f.TaskID]; !slices.Equal(ex, []string{"pool-b"}) {
			t.Fatalf("task %d ran on %v, want the idle pool-b", f.TaskID, ex)
		}
	}
	close(release)
	if err := future.Wait(blocked...); err != nil {
		t.Fatal(err)
	}
}

// TestRoundRobinPolicyAlternates checks the deterministic policy end to end.
func TestRoundRobinPolicyAlternates(t *testing.T) {
	reg := serialize.NewRegistry()
	store := monitor.NewStore()
	d, err := New(Config{
		Registry: reg,
		Executors: []executor.Executor{
			threadpool.New("x", 1, reg),
			threadpool.New("y", 1, reg),
		},
		SchedulerPolicy: "round-robin",
		Monitor:         store, // the test reads where each task launched
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	echo, err := d.PythonApp("echo", func(args []any, _ map[string]any) (any, error) {
		return args[0], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for i := 0; i < 8; i++ {
		f := echo.Call(i)
		if _, err := f.Result(); err != nil {
			t.Fatal(err)
		}
		for _, ex := range launches(store)[f.TaskID] {
			seen[ex]++
		}
	}
	if seen["x"] != 4 || seen["y"] != 4 {
		t.Fatalf("round-robin distribution = %v", seen)
	}
}

// TestUnknownSchedulerPolicyRejected: config typos fail fast at New.
func TestUnknownSchedulerPolicyRejected(t *testing.T) {
	reg := serialize.NewRegistry()
	_, err := New(Config{
		Registry:        reg,
		Executors:       []executor.Executor{threadpool.New("tp", 1, reg)},
		SchedulerPolicy: "fastest-first",
	})
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestDispatchBatchesAcrossExecutors: with many ready tasks at once, each
// lane runner submits its backlog in batches, and the tasks still complete
// and spread across executors (sanity of the batching path, not a perf test).
func TestDispatchBatchesAcrossExecutors(t *testing.T) {
	reg := serialize.NewRegistry()
	store := monitor.NewStore()
	d, err := New(Config{
		Seed:     7,
		Registry: reg,
		Executors: []executor.Executor{
			threadpool.New("e1", 2, reg),
			threadpool.New("e2", 2, reg),
		},
		Monitor: store, // the test reads where each task launched
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	echo, err := d.PythonApp("echo", func(args []any, _ map[string]any) (any, error) {
		return args[0], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var futs []*future.Future
	for i := 0; i < 200; i++ {
		futs = append(futs, echo.Call(i))
	}
	if err := future.Wait(futs...); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	ran := launches(store)
	for _, f := range futs {
		for _, ex := range ran[f.TaskID] {
			seen[ex]++
		}
	}
	if seen["e1"] == 0 || seen["e2"] == 0 {
		t.Fatalf("batched dispatch starved an executor: %v", seen)
	}
	if s := d.Summary(); s["done"] != len(futs) {
		t.Fatalf("summary = %v, want %d done", s, len(futs))
	}
}

// TestTimeoutRetryDoesNotCorruptExecutorAccounting: a timed-out attempt may
// still be running remotely when its retry is submitted. Each attempt gets
// a distinct wire id, so the stale attempt's late result reconciles its own
// pending entry instead of completing (or leaking the outstanding counter
// of) the retry. Regression test for the load signal the capacity-aware
// scheduler depends on.
func TestTimeoutRetryDoesNotCorruptExecutorAccounting(t *testing.T) {
	reg := serialize.NewRegistry()
	tp := threadpool.New("tp", 4, reg)
	d, err := New(Config{
		Registry:    reg,
		Executors:   []executor.Executor{tp},
		TaskTimeout: 40 * time.Millisecond,
		Retries:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	slow, err := d.PythonApp("slow", func([]any, map[string]any) (any, error) {
		time.Sleep(150 * time.Millisecond)
		return "late", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	f := slow.Call()
	if _, err := f.Result(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	// Let both stale attempts finish on the workers, then the executor's
	// outstanding counter must return to zero.
	deadline := time.Now().Add(3 * time.Second)
	for tp.Outstanding() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("outstanding leaked: %d", tp.Outstanding())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestQueuedTimeoutStillRetries: an attempt that times out while waiting in
// the dispatch pipeline (never launched, so the record is still Pending)
// must consume a retry and re-enter the queue, not fail permanently with
// budget remaining.
func TestQueuedTimeoutStillRetries(t *testing.T) {
	reg := serialize.NewRegistry()
	store := monitor.NewStore()
	tp := threadpool.New("tp", 1, reg)
	d, err := New(Config{
		Registry:    reg,
		Executors:   []executor.Executor{tp},
		TaskTimeout: 60 * time.Millisecond,
		Retries:     3,
		// The victim's retry is read off its history below.
		Monitor: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	release := make(chan struct{})
	blocker, err := d.PythonApp("blocker", func([]any, map[string]any) (any, error) {
		<-release
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	quick, err := d.PythonApp("quick", func(args []any, _ map[string]any) (any, error) {
		return args[0], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Hold the only worker past the victim's first-attempt budget, then
	// release; a retry attempt must succeed.
	blockerFut := blocker.Call()
	time.Sleep(10 * time.Millisecond)
	victim := quick.Call("survived")
	time.AfterFunc(100*time.Millisecond, func() { close(release) })
	v, verr := victim.Result()
	if verr != nil {
		t.Fatalf("victim failed despite retry budget: %v", verr)
	}
	if v != "survived" {
		t.Fatalf("v = %v", v)
	}
	if retries(store, victim.TaskID) == 0 {
		t.Fatal("queued timeout did not consume a retry attempt")
	}
	if _, err := blockerFut.Result(); err != nil && !errors.Is(err, ErrTimeout) {
		t.Fatalf("blocker: %v", err)
	}
}

// rogueSched fabricates an executor outside the DFK's configured set; routing
// must fail such tasks cleanly and silence their timeout timers.
type rogueSched struct{}

func (rogueSched) Name() string { return "rogue" }
func (rogueSched) Pick([]executor.Executor) (executor.Executor, error) {
	return threadpool.New("phantom", 1, serialize.NewRegistry()), nil
}

func TestPickErrorCompletesAttemptWithoutRetryEcho(t *testing.T) {
	reg := serialize.NewRegistry()
	store := monitor.NewStore()
	d, err := New(Config{
		Registry:    reg,
		Executors:   []executor.Executor{threadpool.New("real", 1, reg)},
		Scheduler:   rogueSched{},
		TaskTimeout: 30 * time.Millisecond,
		Retries:     2,
		// The task's retries and outcome are read off its history below.
		Monitor: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	noop, err := d.PythonApp("noop", func([]any, map[string]any) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	f := noop.Call()
	if _, err := f.Result(); err == nil {
		t.Fatal("task with unresolvable executor succeeded")
	}
	// Let the (now-stopped) timeout window pass; the terminal task must not
	// be re-processed into bogus retry attempts by a stray timer.
	time.Sleep(80 * time.Millisecond)
	if got := retries(store, f.TaskID); got != 0 {
		t.Fatalf("retries = %d after pick failure; timer re-processed a terminal task", got)
	}
	if h := store.TaskHistory(f.TaskID); h[len(h)-1].To != "failed" {
		t.Fatalf("history = %+v, want it to end failed", h)
	}
	if s := d.Summary(); s["failed"] != 1 || concluded(d) != 1 {
		t.Fatalf("summary = %v, want the one task failed once", s)
	}
}

// failingStart is an executor whose Start always fails.
type failingStart struct{}

func (failingStart) Label() string                           { return "bad" }
func (failingStart) Start() error                            { return errors.New("bind failed") }
func (failingStart) Submit(serialize.TaskMsg) *future.Future { return future.Completed(nil) }
func (failingStart) Outstanding() int                        { return 0 }
func (failingStart) Shutdown() error                         { return nil }

// TestNewShutsDownStartedExecutorsOnFailure: a mid-loop Start failure must
// not leak the executors already started.
func TestNewShutsDownStartedExecutorsOnFailure(t *testing.T) {
	reg := serialize.NewRegistry()
	tp := threadpool.New("tp", 2, reg)
	if _, err := New(Config{Registry: reg, Executors: []executor.Executor{tp, failingStart{}}}); err == nil {
		t.Fatal("New succeeded with a failing executor")
	}
	// The already-started pool must have been shut down on the error path.
	fut := tp.Submit(serialize.TaskMsg{ID: 1, App: "x"})
	if _, err := fut.Result(); !errors.Is(err, executor.ErrShutdown) {
		t.Fatalf("started executor leaked: Submit err = %v", err)
	}

	// Nor the one whose own Start failed half way: an htex executor has its
	// interchanges, dealers and receive loops running by the time the
	// provider refuses the first block.
	baseline := runtime.NumGoroutine()
	hx := htex.New(htex.Config{
		Registry:   reg,
		Shards:     2,
		InitBlocks: 1,
		Provider:   refusingProvider{provider.NewLocal(provider.Config{})},
	})
	_, err := New(Config{Registry: reg, Executors: []executor.Executor{hx}})
	if err == nil || !strings.Contains(err.Error(), "scale out") {
		t.Fatalf("New with a refusing provider: err = %v", err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("failed Start leaked goroutines: %d running, %d before New", n, baseline)
	}
}

// refusingProvider is a provider with no capacity: every block request errors.
type refusingProvider struct{ *provider.Local }

func (refusingProvider) SubmitBlock(provider.Payload) (string, error) {
	return "", errors.New("no capacity")
}
