package parsl_test

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/executor"
	"repro/internal/executor/threadpool"
	"repro/internal/serialize"
)

// The module is named "repro"; alias the root package to parsl for
// readability in tests and examples.
// (Go resolves the package name from the package clause: parsl.)

func TestQuickstartThreadPool(t *testing.T) {
	d, err := parslNewLocal(t, 4)
	if err != nil {
		t.Fatal(err)
	}
	hello, err := d.PythonApp("hello", func(args []any, _ map[string]any) (any, error) {
		return "Hello " + args[0].(string), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := hello.Call("World").Result()
	if err != nil || v != "Hello World" {
		t.Fatalf("result = %v, %v", v, err)
	}
}

func parslNewLocal(t *testing.T, n int) (*parsl.DFK, error) {
	t.Helper()
	d, err := parsl.NewLocal(n)
	if err == nil {
		t.Cleanup(func() { _ = d.Shutdown() })
	}
	return d, err
}

func TestQuickstartHTEX(t *testing.T) {
	d, err := parsl.NewLocalHTEX(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	double, err := d.PythonApp("double", func(args []any, _ map[string]any) (any, error) {
		return args[0].(int) * 2, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var futs []*parsl.Future
	for i := 0; i < 20; i++ {
		futs = append(futs, double.Call(i))
	}
	for i, f := range futs {
		v, err := f.Result()
		if err != nil || v != i*2 {
			t.Fatalf("task %d: %v %v", i, v, err)
		}
	}
}

func TestQuickstartLLEX(t *testing.T) {
	d, err := parsl.NewLocalLLEX(2)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	ping, err := d.PythonApp("ping", func([]any, map[string]any) (any, error) { return "pong", nil })
	if err != nil {
		t.Fatal(err)
	}
	v, err := ping.Call().Result()
	if err != nil || v != "pong" {
		t.Fatalf("result = %v, %v", v, err)
	}
}

func TestQuickstartEXEX(t *testing.T) {
	d, err := parsl.NewLocalEXEX(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	sq, err := d.PythonApp("square", func(args []any, _ map[string]any) (any, error) {
		x := args[0].(int)
		return x * x, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := sq.Call(9).Result()
	if err != nil || v != 81 {
		t.Fatalf("result = %v, %v", v, err)
	}
}

func TestBashAppThroughFacade(t *testing.T) {
	d, err := parslNewLocal(t, 2)
	if err != nil {
		t.Fatal(err)
	}
	echo, err := d.BashApp("becho", func(args []any, _ map[string]any) (string, error) {
		return fmt.Sprintf("echo 'Hello %v'", args[0]), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := echo.Call("World").Result()
	if err != nil {
		t.Skipf("/bin/sh unavailable: %v", err)
	}
	res := v.(parsl.BashResult)
	if res.ExitCode != 0 {
		t.Fatalf("exit = %d", res.ExitCode)
	}
}

func TestRecommendExecutorFig7(t *testing.T) {
	cases := []struct {
		nodes       int
		dur         time.Duration
		interactive bool
		want        string
	}{
		{5, time.Second, true, "llex"},         // interactive, short tasks, <=10 nodes
		{5, 0, true, "llex"},                   // duration unknown: interactivity decides
		{5, time.Second, false, "htex"},        // batch small
		{1000, time.Minute, false, "htex"},     // batch <=1000 nodes
		{8000, 2 * time.Minute, false, "exex"}, // >1000 nodes, minute-scale tasks
		{50, time.Millisecond, true, "htex"},   // interactive but too many nodes for llex
		// Fig. 7 duration thresholds: llex only pays off for short tasks,
		// exex only for tasks >= 1 min.
		{5, 5 * time.Minute, true, "htex"},      // minute-scale tasks gain nothing from llex
		{8000, time.Second, false, "htex"},      // >1000 nodes but sub-minute tasks: exex would thrash
		{8000, 59 * time.Second, false, "htex"}, // just below the exex threshold
		{8000, time.Minute, false, "exex"},      // exactly at the exex threshold
		{5, 59 * time.Second, true, "llex"},     // just below the llex cutoff
		{8000, 0, false, "htex"},                // duration unknown: stay on htex
	}
	for _, c := range cases {
		if got := parsl.RecommendExecutor(c.nodes, c.dur, c.interactive); got != c.want {
			t.Errorf("Recommend(%d, %v, %v) = %q, want %q", c.nodes, c.dur, c.interactive, got, c.want)
		}
	}
}

func TestCheckExecutorFitFig7(t *testing.T) {
	// HTEX rule: task-duration / nodes >= 0.01 — "on 10 nodes, tasks >= 0.1 s".
	if ok, _ := parsl.CheckExecutorFit("htex", 10, 100*time.Millisecond); !ok {
		t.Error("htex with 10 nodes / 0.1s tasks should fit")
	}
	if ok, warn := parsl.CheckExecutorFit("htex", 10, 10*time.Millisecond); ok || warn == "" {
		t.Error("htex with 10 nodes / 0.01s tasks should warn")
	}
	if ok, _ := parsl.CheckExecutorFit("llex", 5, time.Millisecond); !ok {
		t.Error("llex on 5 nodes should fit")
	}
	if ok, _ := parsl.CheckExecutorFit("llex", 100, time.Millisecond); ok {
		t.Error("llex on 100 nodes should warn")
	}
	if ok, _ := parsl.CheckExecutorFit("exex", 8000, 2*time.Minute); !ok {
		t.Error("exex with 2min tasks should fit")
	}
	if ok, _ := parsl.CheckExecutorFit("exex", 8000, time.Second); ok {
		t.Error("exex with 1s tasks should warn")
	}
	if ok, _ := parsl.CheckExecutorFit("warp", 1, time.Second); ok {
		t.Error("unknown executor accepted")
	}
}

func TestFileFacade(t *testing.T) {
	f := parsl.MustFile("http://example.org/data.csv")
	if !f.Remote() || f.Filename() != "data.csv" {
		t.Fatalf("file = %+v", f)
	}
	if _, err := parsl.NewFile("bogus://x/y"); err == nil {
		t.Fatal("bad scheme accepted")
	}
}

func TestVersionString(t *testing.T) {
	if !strings.Contains(parsl.Version, "HPDC") {
		t.Fatalf("version = %q", parsl.Version)
	}
}

// TestSubmissionAllocationCeiling guards the submit path — App.Call through
// admission, the task graph, the dispatch lanes and the threadpool to a
// settled future — against starting to allocate again, with the durable log
// off and on. It submits in rounds small enough for the record and attempt
// pools to cover, so the count repeats to the second digit: 2.03 a task with
// the WAL off and 2.03 with it on when the ceiling was set. The two left are
// the task's future and the threadpool's copy of its arguments; the record,
// the attempt and the payload come from pools, and the argument slice of the
// call stays on the caller's stack, since Submit keeps no reference to it (it
// read 3.03 and 3.04 when a waiting task kept the caller's slice, which made
// every caller's slice escape). A 20 000-task burst, the shape
// BenchmarkWALSubmission reports, outruns the pools and reads more. Not under
// -race: there sync.Pool drops a quarter of what it is handed and the count
// follows the core count.
func TestSubmissionAllocationCeiling(t *testing.T) {
	for _, arm := range walArms {
		t.Run(arm.name, func(t *testing.T) {
			checkSubmissionAllocations(t, submissionApp(t, arm.walOn))
		})
	}
}

// TestSubmissionAllocationCeilingRouted is TestSubmissionAllocationCeiling's
// measurement on the load-aware scheduler and with the health plane on. Every
// task is routed inside Submit, so a pick that allocated, or a breaker check
// that did, would show here; both read what the default deployment reads
// (2.02 when added).
func TestSubmissionAllocationCeilingRouted(t *testing.T) {
	for _, arm := range []struct {
		name   string
		mutate func(*parsl.Config)
	}{
		{"least-outstanding", func(c *parsl.Config) { c.Scheduler = parsl.NewLeastOutstandingScheduler() }},
		{"health", func(c *parsl.Config) { c.Health = &parsl.HealthOptions{} }},
	} {
		t.Run(arm.name, func(t *testing.T) {
			reg := serialize.NewRegistry()
			cfg := parsl.Config{Registry: reg, Executors: []executor.Executor{threadpool.New("tp", 4, reg)}}
			arm.mutate(&cfg)
			d, err := parsl.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = d.Shutdown() })
			noop, err := d.PythonApp("bench-noop", func([]any, map[string]any) (any, error) { return nil, nil })
			if err != nil {
				t.Fatal(err)
			}
			checkSubmissionAllocations(t, noop)
		})
	}
}

// checkSubmissionAllocations submits no-ops to noop in rounds of 200 after a
// warm-up and fails when they average more than 2.7 allocations a task.
func checkSubmissionAllocations(t *testing.T, noop *parsl.App) {
	const ceiling = 2.7
	perTask := allocationsPerTask(t, callNoop(noop))
	t.Logf("%.2f allocations per submitted task", perTask)
	if raceDetector() {
		t.Skip("allocation counts under -race measure the detector's sync.Pool, not the submit path")
	}
	if perTask > ceiling {
		t.Fatalf("%.2f allocations per submitted task, ceiling %.1f", perTask, ceiling)
	}
}

// allocationsPerTask submits tasks through submit in rounds of 200, waiting
// for each round, after a 2000-task warm-up of the record, batch and buffer
// pools, and returns the allocations a task averaged.
func allocationsPerTask(t *testing.T, submit func(i int) *parsl.Future) float64 {
	submitAndWait(t, 2000, submit)
	const rounds, perRound = 100, 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < rounds; r++ {
		submitAndWait(t, perRound, submit)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / (rounds * perRound)
}

// TestCallOptionAllocationFree checks that a per-call option costs a
// submission nothing: a CallOption is a value that Submit copies into options
// on its own stack, so a task submitted with WithTenant allocates what one
// submitted without options does. Not under -race, for the reason
// TestSubmissionAllocationCeiling gives.
func TestCallOptionAllocationFree(t *testing.T) {
	if raceDetector() {
		t.Skip("allocation counts under -race measure the detector's sync.Pool, not the submit path")
	}
	noop := submissionApp(t, false)
	ctx := context.Background()
	tenant := parsl.WithTenant("tenant1", 1)
	plain := allocationsPerTask(t, func(i int) *parsl.Future { return noop.Submit(ctx, []any{i}) })
	with := allocationsPerTask(t, func(i int) *parsl.Future { return noop.Submit(ctx, []any{i}, tenant) })
	t.Logf("%.2f allocations per task without options, %.2f with WithTenant", plain, with)
	if with > plain+0.1 {
		t.Fatalf("WithTenant costs %.2f allocations per task more than no option", with-plain)
	}
}

// TestDependentTaskAllocationCeiling bounds what a task that takes an input
// allocates from Submit to its settled future, with the durable log off and
// on: rounds of 8 chains of 25 tasks on four threadpool workers, each task
// taking the previous one's future plus two ints of 256 and over (a smaller
// int boxes into a static table, which would hide a re-boxing). It read 4.02
// a task with the log off when the ceiling was set: the future, one of its
// ints boxed by the caller, the worker's copy of the arguments and the boxed
// result. The call's argument slice stays on the caller's stack, and the
// record resolves the input in its own copy of the list, whose array it keeps
// across recycling. With the log on it reads 4.04, the log reading bytes built
// from the same values. It read 5.98 and 6.01 when the record kept the
// caller's slice and launch resolved the input into a new one, and 8.98 and
// 9.01 when the worker decoded its copy from bytes and re-boxed all three
// ints. Not under -race, for the reason TestSubmissionAllocationCeiling gives.
func TestDependentTaskAllocationCeiling(t *testing.T) {
	const ceiling = 4.5
	for _, arm := range walArms {
		t.Run(arm.name, func(t *testing.T) {
			step, err := submissionDFK(t, arm.walOn).PythonApp("dep-step", func(args []any, _ map[string]any) (any, error) {
				return args[0].(int) + args[1].(int) - args[2].(int), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			const chains, depth = 8, 25
			round := func() {
				var tails [chains]*parsl.Future
				for c := range tails {
					tails[c] = step.Call(1000*(c+1), 300, 300)
					for i := 1; i < depth; i++ {
						tails[c] = step.Call(tails[c], 300+i, 300)
					}
				}
				for c, f := range tails {
					want := 1000*(c+1) + depth*(depth-1)/2
					if v, err := f.Result(); err != nil || v != want {
						t.Fatalf("chain %d = %v, %v; want %d", c, v, err, want)
					}
				}
			}
			for r := 0; r < 10; r++ {
				round() // warm the record, attempt, payload and batch pools
			}
			const rounds = 100
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for r := 0; r < rounds; r++ {
				round()
			}
			runtime.ReadMemStats(&after)
			perTask := float64(after.Mallocs-before.Mallocs) / (rounds * chains * depth)
			t.Logf("%.2f allocations per dependent task", perTask)
			if raceDetector() {
				t.Skip("allocation counts under -race measure the detector's sync.Pool, not the submit path")
			}
			if perTask > ceiling {
				t.Fatalf("%.2f allocations per dependent task, ceiling %.1f", perTask, ceiling)
			}
		})
	}
}

// TestPendingTaskHeapCeiling bounds what a task waiting on its inputs holds
// in the heap: 64 chains of 100 000 tasks in all hang off one root that does
// not finish until the heap is read, so every one of them is submitted and
// pending (the ready-task window does not bound these). The heap is read after
// a collection on each side of the burst. A pending task cost 5.00 objects and
// 570 B when its record counted its inputs under the record lock and the graph
// kept its edge lists; 4.00 and 507 B when each task captured its record in a
// closure registered on its inputs; 3.00 and 459 B when the bound was set,
// the record being its inputs' DoneHook; 3.00 and 448 B once the record held
// its own copy of the argument list instead of the caller's slice. It reads
// 3.00 and 400 B: the record, the future (64 B, one cache line) and the
// record's copy of the argument list. Not under
// -race, whose detector keeps its own shadow state per object.
func TestPendingTaskHeapCeiling(t *testing.T) {
	const maxObjects, maxBytes = 3.05, 416
	if raceDetector() {
		t.Skip("heap counts under -race include the detector's own state")
	}
	d, err := parsl.NewLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Shutdown() })
	release := make(chan struct{})
	defer func() {
		select {
		case <-release:
		default:
			close(release) // a failed check must not leave the root blocked
		}
	}()
	root, err := d.PythonApp("heap-root", func([]any, map[string]any) (any, error) {
		<-release
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := d.PythonApp("heap-inc", func(args []any, _ map[string]any) (any, error) {
		return args[0].(int) + 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	const chains, tasks = 64, 100_000
	heads := make([]*parsl.Future, chains)
	r := root.Call()
	for i := range heads {
		heads[i] = r
	}
	var before, after runtime.MemStats
	heap := func(m *runtime.MemStats) {
		runtime.GC()
		runtime.GC() // the second empties sync.Pool's victim cache
		runtime.ReadMemStats(m)
	}
	heap(&before)
	for i := 0; i < tasks; i++ {
		heads[i%chains] = inc.Call(heads[i%chains])
	}
	heap(&after)
	objects := float64(int64(after.HeapObjects)-int64(before.HeapObjects)) / tasks
	bytes := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / tasks
	t.Logf("%.2f heap objects and %.1f B per pending task", objects, bytes)
	close(release)
	for c, f := range heads {
		want := tasks / chains
		if c < tasks%chains {
			want++
		}
		if v, err := f.Result(); err != nil || v != want {
			t.Fatalf("chain %d tail = %v, %v; want %d", c, v, err, want)
		}
	}
	if objects > maxObjects || bytes > maxBytes {
		t.Fatalf("%.2f objects and %.1f B per pending task, ceiling %.2f and %d B",
			objects, bytes, maxObjects, maxBytes)
	}
}

// raceDetector reports whether this test binary was built with -race.
func raceDetector() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
