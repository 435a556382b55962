package dfk

import (
	"errors"
	"fmt"
	"slices"
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

// newDFK builds a DFK over a threadpool executor; the registry is shared so
// apps registered via the DFK run in-process.
func newDFK(t *testing.T, mutate func(*Config)) *DFK {
	t.Helper()
	reg := serialize.NewRegistry()
	cfg := Config{
		Seed:      1,
		Registry:  reg,
		Executors: []executor.Executor{threadpool.New("tp", 4, reg)},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	dd, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = dd.Shutdown() })
	return dd
}

func TestSimpleAppInvocation(t *testing.T) {
	d := newDFK(t, nil)
	hello, err := d.PythonApp("hello", func(args []any, _ map[string]any) (any, error) {
		return "Hello " + args[0].(string), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := hello.Call("World").Result()
	if err != nil {
		t.Fatal(err)
	}
	if v != "Hello World" {
		t.Fatalf("v = %v", v)
	}
}

func TestFuturePassingCreatesDependency(t *testing.T) {
	d := newDFK(t, nil)
	var mu sync.Mutex
	var ran []int // each body's input, in the order the bodies ran
	inc, err := d.PythonApp("inc", func(args []any, _ map[string]any) (any, error) {
		time.Sleep(5 * time.Millisecond)
		mu.Lock()
		ran = append(ran, args[0].(int))
		mu.Unlock()
		return args[0].(int) + 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	f1 := inc.Call(0)
	f2 := inc.Call(f1)
	f3 := inc.Call(f2)
	v, err := f3.Result()
	if err != nil {
		t.Fatal(err)
	}
	if v != 3 {
		t.Fatalf("chain result = %v", v)
	}
	// Each child ran after its parent settled and was handed its value.
	mu.Lock()
	defer mu.Unlock()
	if !slices.Equal(ran, []int{0, 1, 2}) {
		t.Fatalf("bodies ran on inputs %v, want [0 1 2]", ran)
	}
}

func TestDiamondDAG(t *testing.T) {
	d := newDFK(t, nil)
	add, err := d.PythonApp("add", func(args []any, _ map[string]any) (any, error) {
		sum := 0
		for _, a := range args {
			sum += a.(int)
		}
		return sum, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	root := add.Call(1)
	left := add.Call(root, 10)
	right := add.Call(root, 100)
	join := add.Call(left, right)
	v, err := join.Result()
	if err != nil {
		t.Fatal(err)
	}
	if v != 112 { // (1+10) + (1+100)
		t.Fatalf("diamond = %v", v)
	}
}

func TestFuturesInsideSliceArgs(t *testing.T) {
	d := newDFK(t, nil)
	one, _ := d.PythonApp("one", func([]any, map[string]any) (any, error) { return 1, nil })
	sum, _ := d.PythonApp("sumlist", func(args []any, _ map[string]any) (any, error) {
		total := 0
		for _, v := range args[0].([]any) {
			total += v.(int)
		}
		return total, nil
	})
	futs := []any{one.Call(), one.Call(), one.Call()}
	v, err := sum.Call(futs).Result()
	if err != nil {
		t.Fatal(err)
	}
	if v != 3 {
		t.Fatalf("sum = %v", v)
	}
}

func TestDependencyFailurePropagates(t *testing.T) {
	store := monitor.NewStore()
	d := newDFK(t, func(c *Config) { c.Monitor = store })
	bad, _ := d.PythonApp("bad", func([]any, map[string]any) (any, error) {
		return nil, errors.New("upstream broke")
	})
	use, _ := d.PythonApp("use", func(args []any, _ map[string]any) (any, error) {
		return args[0], nil
	})
	_, err := use.Call(bad.Call()).Result()
	var de *DependencyError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want DependencyError", err)
	}
	// The dependent task itself must never have launched.
	if ex := launches(store)[de.TaskID]; len(ex) != 0 {
		t.Fatalf("dependent task was launched on %v despite failed dependency", ex)
	}
}

func TestRetriesRecoverFlakyApp(t *testing.T) {
	var calls atomic.Int32
	d := newDFK(t, func(c *Config) { c.Retries = 3 })
	flaky, _ := d.PythonApp("flaky", func([]any, map[string]any) (any, error) {
		if calls.Add(1) < 3 {
			return nil, errors.New("transient")
		}
		return "recovered", nil
	})
	v, err := flaky.Call().Result()
	if err != nil {
		t.Fatal(err)
	}
	if v != "recovered" || calls.Load() != 3 {
		t.Fatalf("v=%v calls=%d", v, calls.Load())
	}
}

func TestRetriesExhausted(t *testing.T) {
	var calls atomic.Int32
	d := newDFK(t, func(c *Config) { c.Retries = 2 })
	alwaysBad, _ := d.PythonApp("alwaysbad", func([]any, map[string]any) (any, error) {
		calls.Add(1)
		return nil, errors.New("permanent")
	})
	_, err := alwaysBad.Call().Result()
	if err == nil {
		t.Fatal("exhausted retries returned success")
	}
	if calls.Load() != 3 { // initial + 2 retries
		t.Fatalf("calls = %d, want 3", calls.Load())
	}
}

func TestNoRetriesByDefault(t *testing.T) {
	var calls atomic.Int32
	d := newDFK(t, nil)
	bad, _ := d.PythonApp("bad1", func([]any, map[string]any) (any, error) {
		calls.Add(1)
		return nil, errors.New("x")
	})
	_, _ = bad.Call().Result()
	if calls.Load() != 1 {
		t.Fatalf("calls = %d", calls.Load())
	}
}

func TestMemoizationAvoidsReexecution(t *testing.T) {
	var calls atomic.Int32
	d := newDFK(t, func(c *Config) { c.Memoize = true })
	square, _ := d.PythonApp("square", func(args []any, _ map[string]any) (any, error) {
		calls.Add(1)
		return args[0].(int) * args[0].(int), nil
	})
	v1, _ := square.Call(7).Result()
	v2, _ := square.Call(7).Result()
	v3, _ := square.Call(8).Result()
	if v1 != 49 || v2 != 49 || v3 != 64 {
		t.Fatalf("results: %v %v %v", v1, v2, v3)
	}
	if calls.Load() != 2 {
		t.Fatalf("calls = %d, want 2 (one memo hit)", calls.Load())
	}
	hits, _ := d.Memoizer().Stats()
	if hits != 1 {
		t.Fatalf("memo hits = %d", hits)
	}
}

func TestPerAppMemoizeOverride(t *testing.T) {
	var calls atomic.Int32
	d := newDFK(t, func(c *Config) { c.Memoize = true })
	noMemo, _ := d.PythonApp("rng", func([]any, map[string]any) (any, error) {
		return int(calls.Add(1)), nil
	}, WithMemoize(false))
	v1, _ := noMemo.Call().Result()
	v2, _ := noMemo.Call().Result()
	if v1 == v2 {
		t.Fatal("non-deterministic app was memoized")
	}
}

func TestAppVersionInvalidatesMemo(t *testing.T) {
	var calls atomic.Int32
	d := newDFK(t, func(c *Config) { c.Memoize = true })
	fn := func([]any, map[string]any) (any, error) {
		calls.Add(1)
		return "r", nil
	}
	v1app, _ := d.PythonApp("versioned", fn, WithVersion("v1"))
	v2app, _ := d.PythonApp("versioned2", fn, WithVersion("v2"))
	_, _ = v1app.Call().Result()
	_, _ = v2app.Call().Result()
	if calls.Load() != 2 {
		t.Fatalf("different bodies shared a memo entry: calls=%d", calls.Load())
	}
}

func TestExecutorHints(t *testing.T) {
	regA := serialize.NewRegistry()
	regB := serialize.NewRegistry()
	tpA := threadpool.New("cpu", 1, regA)
	tpB := threadpool.New("gpu", 1, regB)
	store := monitor.NewStore()
	d, err := New(Config{Executors: []executor.Executor{tpA, tpB}, Seed: 42, Monitor: store})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()

	fn := func([]any, map[string]any) (any, error) { return "done", nil }
	appHinted, err := d.PythonApp("hinted", fn, WithExecutors("gpu"))
	if err != nil {
		t.Fatal(err)
	}
	// Register the app where workers look it up.
	_ = regA.Register("hinted", fn)
	_ = regB.Register("hinted", fn)

	for i := 0; i < 10; i++ {
		if _, err := appHinted.Call().Result(); err != nil {
			t.Fatal(err)
		}
	}
	ran := launches(store)
	if len(ran) != 10 {
		t.Fatalf("%d tasks launched, want 10", len(ran))
	}
	for id, ex := range ran {
		if !slices.Equal(ex, []string{"gpu"}) {
			t.Fatalf("task %d ran on %v despite hint", id, ex)
		}
	}
}

// TestHintedTasksShareACycle: a burst that interleaves tasks hinted to one
// executor, to two, and to none, each routed on its submitter as it becomes
// ready, while the lanes fill and drain under it, must still route every
// hinted task only to its hints, with a load-blind and with a load-aware
// scheduler.
func TestHintedTasksShareACycle(t *testing.T) {
	for _, policy := range []string{"random", "least-outstanding"} {
		t.Run(policy, func(t *testing.T) {
			reg := serialize.NewRegistry()
			execs := []executor.Executor{threadpool.New("a", 2, reg), threadpool.New("b", 2, reg), threadpool.New("c", 2, reg)}
			store := monitor.NewStore()
			d, err := New(Config{Registry: reg, Executors: execs, Seed: 7, SchedulerPolicy: policy, Monitor: store})
			if err != nil {
				t.Fatal(err)
			}
			defer d.Shutdown()
			fn := func([]any, map[string]any) (any, error) { return nil, nil }
			hints := [][]string{{"a"}, nil, {"c"}, {"b", "c"}, {"b"}}
			apps := make([]*App, len(hints))
			for i, h := range hints {
				var opts []AppOption
				if h != nil {
					opts = append(opts, WithExecutors(h...))
				}
				if apps[i], err = d.PythonApp(fmt.Sprintf("app-%d", i), fn, opts...); err != nil {
					t.Fatal(err)
				}
			}
			const burst = 1000
			futs := make([]*future.Future, burst)
			for i := range futs {
				futs[i] = apps[i%len(apps)].Call()
			}
			if err := future.Wait(futs...); err != nil {
				t.Fatal(err)
			}
			ran := launches(store)
			for i, f := range futs {
				want := hints[i%len(hints)]
				if want == nil {
					continue
				}
				if got := ran[f.TaskID]; len(got) != 1 || !slices.Contains(want, got[0]) {
					t.Fatalf("task %d hinted to %v ran on %v", i, want, got)
				}
			}
		})
	}
}

func TestHintUnknownExecutorRejected(t *testing.T) {
	d := newDFK(t, nil)
	if _, err := d.PythonApp("x", func([]any, map[string]any) (any, error) { return nil, nil },
		WithExecutors("warp")); err == nil {
		t.Fatal("unknown hint accepted")
	}
}

func TestRandomExecutorSelectionCoversAll(t *testing.T) {
	regA, regB := serialize.NewRegistry(), serialize.NewRegistry()
	fn := func([]any, map[string]any) (any, error) { return nil, nil }
	_ = regA.Register("spread", fn)
	_ = regB.Register("spread", fn)
	tpA := threadpool.New("ex-a", 2, regA)
	tpB := threadpool.New("ex-b", 2, regB)
	store := monitor.NewStore()
	d, err := New(Config{Executors: []executor.Executor{tpA, tpB}, Seed: 7, Monitor: store})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	spread, _ := d.PythonApp("spread", fn)
	var futs []*future.Future
	for i := 0; i < 40; i++ {
		futs = append(futs, spread.Call())
	}
	if err := future.Wait(futs...); err != nil {
		t.Fatal(err)
	}
	used := map[string]int{}
	for _, ex := range launches(store) {
		used[ex[0]]++
	}
	if used["ex-a"] == 0 || used["ex-b"] == 0 {
		t.Fatalf("random selection unbalanced: %v", used)
	}
}

func TestTaskTimeout(t *testing.T) {
	d := newDFK(t, func(c *Config) { c.TaskTimeout = 30 * time.Millisecond })
	slow, _ := d.PythonApp("slow", func([]any, map[string]any) (any, error) {
		time.Sleep(2 * time.Second)
		return nil, nil
	})
	_, err := slow.Call().Result()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v", err)
	}
}

func TestMonitoringRecordsTransitions(t *testing.T) {
	store := monitor.NewStore()
	d := newDFK(t, func(c *Config) { c.Monitor = store })
	ok, _ := d.PythonApp("ok", func([]any, map[string]any) (any, error) { return nil, nil })
	if _, err := ok.Call().Result(); err != nil {
		t.Fatal(err)
	}
	d.WaitAll()
	hist := store.TaskHistory(0)
	if len(hist) < 3 {
		t.Fatalf("history = %+v", hist)
	}
	last := hist[len(hist)-1]
	if last.To != "done" {
		t.Fatalf("final transition = %+v", last)
	}
}

func TestSummaryAndWaitAll(t *testing.T) {
	d := newDFK(t, nil)
	ok, _ := d.PythonApp("okk", func([]any, map[string]any) (any, error) { return nil, nil })
	bad, _ := d.PythonApp("badd", func([]any, map[string]any) (any, error) { return nil, errors.New("x") })
	for i := 0; i < 5; i++ {
		ok.Call()
	}
	bad.Call()
	d.WaitAll()
	s := d.Summary()
	if s["done"] != 5 || s["failed"] != 1 {
		t.Fatalf("summary = %v", s)
	}
	if d.Outstanding() != 0 {
		t.Fatalf("outstanding = %d", d.Outstanding())
	}
}

func TestSubmitAfterShutdown(t *testing.T) {
	d := newDFK(t, nil)
	ok, _ := d.PythonApp("okkk", func([]any, map[string]any) (any, error) { return nil, nil })
	if err := d.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if _, err := ok.Call().Result(); !errors.Is(err, executor.ErrShutdown) {
		t.Fatalf("err = %v", err)
	}
}

func TestDuplicateAppNameRejected(t *testing.T) {
	d := newDFK(t, nil)
	fn := func([]any, map[string]any) (any, error) { return nil, nil }
	if _, err := d.PythonApp("dup", fn); err != nil {
		t.Fatal(err)
	}
	if _, err := d.PythonApp("dup", fn); err == nil {
		t.Fatal("duplicate app accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty executor list accepted")
	}
	reg := serialize.NewRegistry()
	a := threadpool.New("same", 1, reg)
	b := threadpool.New("same", 1, reg)
	if _, err := New(Config{Executors: []executor.Executor{a, b}}); err == nil {
		t.Fatal("duplicate labels accepted")
	}
}

func TestManyConcurrentTasks(t *testing.T) {
	d := newDFK(t, nil)
	work, _ := d.PythonApp("work", func(args []any, _ map[string]any) (any, error) {
		return args[0].(int) * 2, nil
	})
	const n = 1000
	futs := make([]*future.Future, n)
	for i := 0; i < n; i++ {
		futs[i] = work.Call(i)
	}
	for i, f := range futs {
		v, err := f.Result()
		if err != nil || v != i*2 {
			t.Fatalf("task %d: %v %v", i, v, err)
		}
	}
	if s := d.Summary(); s["done"] != n || concluded(d) != n {
		t.Fatalf("summary = %v, want %d done", s, n)
	}
}

func TestMapReducePattern(t *testing.T) {
	d := newDFK(t, nil)
	mapApp, _ := d.PythonApp("mapsq", func(args []any, _ map[string]any) (any, error) {
		x := args[0].(int)
		return x * x, nil
	})
	reduceApp, _ := d.PythonApp("reducesum", func(args []any, _ map[string]any) (any, error) {
		total := 0
		for _, v := range args[0].([]any) {
			total += v.(int)
		}
		return total, nil
	})
	var mapped []any
	for i := 1; i <= 10; i++ {
		mapped = append(mapped, mapApp.Call(i))
	}
	v, err := reduceApp.Call(mapped).Result()
	if err != nil {
		t.Fatal(err)
	}
	if v != 385 { // sum of squares 1..10
		t.Fatalf("reduce = %v", v)
	}
}

func TestDynamicTaskGeneration(t *testing.T) {
	// Tasks generating new tasks during execution (§3.4): each level
	// submits the next from the program after observing a result.
	d := newDFK(t, nil)
	step, _ := d.PythonApp("step", func(args []any, _ map[string]any) (any, error) {
		return args[0].(int) + 1, nil
	})
	v := 0
	for i := 0; i < 5; i++ {
		r, err := step.Call(v).Result()
		if err != nil {
			t.Fatal(err)
		}
		v = r.(int)
	}
	if v != 5 {
		t.Fatalf("v = %d", v)
	}
	if n := concluded(d); n != 5 {
		t.Fatalf("tasks = %d", n)
	}
}

func ExampleApp_Call() {
	reg := serialize.NewRegistry()
	tp := threadpool.New("local", 2, reg)
	d, err := New(Config{Registry: reg, Executors: []executor.Executor{tp}})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer d.Shutdown()
	hello, _ := d.PythonApp("hello-ex", func(args []any, _ map[string]any) (any, error) {
		return "Hello " + args[0].(string), nil
	})
	v, _ := hello.Call("World").Result()
	fmt.Println(v)
	// Output: Hello World
}

// concluded is the number of tasks Summary counts, whatever their outcome.
func concluded(d *DFK) int {
	s := d.Summary()
	return s["done"] + s["failed"] + s["memoized"]
}

// launches returns, per task id, the executors the monitor stream saw the
// task launched on, one per attempt, in order.
func launches(store *monitor.Store) map[int64][]string {
	out := map[int64][]string{}
	for _, e := range store.Events(monitor.KindTaskState) {
		if e.To == "launched" {
			out[e.TaskID] = append(out[e.TaskID], e.Executor)
		}
	}
	return out
}

// retries counts the retry events in task id's history: "retrying", or
// "requeued" for an attempt that timed out while still queued.
func retries(store *monitor.Store, id int64) (n int) {
	for _, e := range store.TaskHistory(id) {
		if e.To == "retrying" || e.To == "requeued" {
			n++
		}
	}
	return n
}
