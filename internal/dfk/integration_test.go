package dfk

// End-to-end integration: the DataFlowKernel driving each real executor
// architecture (HTEX, EXEX, LLEX) and combinations, including fault
// recovery across the full stack and checkpoint restart across DFK
// instances — the program-level fault tolerance story of §3.7.

import (
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/executor"
	"repro/internal/executor/exex"
	"repro/internal/executor/htex"
	"repro/internal/executor/llex"
	"repro/internal/future"
	"repro/internal/monitor"
	"repro/internal/provider"
	"repro/internal/serialize"
	"repro/internal/simnet"
)

func newHTEXDFK(t *testing.T, nodes, workers int, mutate func(*Config)) *DFK {
	t.Helper()
	reg := serialize.NewRegistry()
	ex := htex.New(htex.Config{
		Label:      "htex",
		Transport:  simnet.NewNetwork(0),
		Registry:   reg,
		Provider:   provider.NewLocal(provider.Config{NodesPerBlock: nodes}),
		InitBlocks: 1,
		Manager:    htex.ManagerConfig{Workers: workers, Prefetch: workers},
		Interchange: htex.InterchangeConfig{
			Seed: 1, HeartbeatPeriod: 50 * time.Millisecond, HeartbeatThreshold: 250 * time.Millisecond,
		},
	})
	cfg := Config{Seed: 1, Registry: reg, Executors: []executor.Executor{ex}}
	if mutate != nil {
		mutate(&cfg)
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Shutdown() })
	return d
}

func TestDFKOverHTEXPipeline(t *testing.T) {
	d := newHTEXDFK(t, 2, 2, nil)
	inc, err := d.PythonApp("inc", func(args []any, _ map[string]any) (any, error) {
		return args[0].(int) + 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := Chain(inc, 0, 10).Result()
	if err != nil || v != 10 {
		t.Fatalf("chain over htex = %v, %v", v, err)
	}
}

func TestDFKOverEXEX(t *testing.T) {
	reg := serialize.NewRegistry()
	ex := exex.New(exex.Config{
		Label:      "exex",
		Transport:  simnet.NewNetwork(0),
		Registry:   reg,
		Provider:   provider.NewLocal(provider.Config{NodesPerBlock: 2}),
		InitBlocks: 1,
		Pool:       exex.PoolConfig{Ranks: 3},
		Interchange: htex.InterchangeConfig{
			Seed: 1, HeartbeatPeriod: 50 * time.Millisecond, HeartbeatThreshold: 250 * time.Millisecond,
		},
	})
	d, err := New(Config{Seed: 1, Registry: reg, Executors: []executor.Executor{ex}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	mul, err := d.PythonApp("mulex", func(args []any, _ map[string]any) (any, error) {
		return args[0].(int) * args[1].(int), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	futs := mul.Map([][]any{{3, 4}, {5, 6}, {7, 8}})
	want := []int{12, 30, 56}
	for i, f := range futs {
		v, err := f.Result()
		if err != nil || v != want[i] {
			t.Fatalf("exex map[%d] = %v, %v", i, v, err)
		}
	}
}

func TestDFKOverLLEX(t *testing.T) {
	reg := serialize.NewRegistry()
	ex := llex.New(llex.Config{Label: "llex", Transport: simnet.NewNetwork(0), Registry: reg, Workers: 2})
	d, err := New(Config{Seed: 1, Registry: reg, Executors: []executor.Executor{ex}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	ping, err := d.PythonApp("pingll", func([]any, map[string]any) (any, error) { return "pong", nil })
	if err != nil {
		t.Fatal(err)
	}
	var futs []*future.Future
	for i := 0; i < 50; i++ {
		futs = append(futs, ping.Call())
	}
	if err := future.Wait(futs...); err != nil {
		t.Fatal(err)
	}
}

func TestMultiSiteExecution(t *testing.T) {
	// §3.5: "multi-site" execution — two executors in one config, apps
	// pinned per executor with hints, plus an unpinned app spread randomly.
	reg := serialize.NewRegistry()
	hx := htex.New(htex.Config{
		Label:      "cluster",
		Transport:  simnet.NewNetwork(0),
		Registry:   reg,
		Provider:   provider.NewLocal(provider.Config{NodesPerBlock: 1}),
		InitBlocks: 1,
		Manager:    htex.ManagerConfig{Workers: 2},
	})
	lx := llex.New(llex.Config{Label: "interactive", Transport: simnet.NewNetwork(0), Registry: reg, Workers: 1})
	d, err := New(Config{Seed: 3, Registry: reg, Executors: []executor.Executor{hx, lx}, RetainRecords: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()

	heavy, err := d.PythonApp("heavy", func([]any, map[string]any) (any, error) {
		return "batch", nil
	}, WithExecutors("cluster"))
	if err != nil {
		t.Fatal(err)
	}
	quick, err := d.PythonApp("quick", func([]any, map[string]any) (any, error) {
		return "fast", nil
	}, WithExecutors("interactive"))
	if err != nil {
		t.Fatal(err)
	}
	anyApp, err := d.PythonApp("anywhere", func([]any, map[string]any) (any, error) {
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var futs []*future.Future
	for i := 0; i < 10; i++ {
		futs = append(futs, heavy.Call(), quick.Call(), anyApp.Call())
	}
	if err := future.Wait(futs...); err != nil {
		t.Fatal(err)
	}
	placed := map[string]map[string]int{}
	for _, rec := range d.Graph().Tasks() {
		if placed[rec.AppName] == nil {
			placed[rec.AppName] = map[string]int{}
		}
		placed[rec.AppName][rec.Executor()]++
	}
	if placed["heavy"]["interactive"] > 0 {
		t.Fatalf("hinted app leaked: %v", placed["heavy"])
	}
	if placed["quick"]["cluster"] > 0 {
		t.Fatalf("hinted app leaked: %v", placed["quick"])
	}
	if len(placed["anywhere"]) != 2 {
		t.Fatalf("unhinted app not spread: %v", placed["anywhere"])
	}
}

func TestRetryRecoversFromManagerLoss(t *testing.T) {
	// Full-stack fault tolerance: a manager dies mid-task; the interchange
	// reports LOST; the DFK retries on surviving capacity.
	reg := serialize.NewRegistry()
	tr := simnet.NewNetwork(0)
	ex := htex.New(htex.Config{
		Label:     "htex",
		Transport: tr,
		Registry:  reg,
		Provider:  provider.NewLocal(provider.Config{NodesPerBlock: 1}),
		Manager:   htex.ManagerConfig{Workers: 1, HeartbeatPeriod: 30 * time.Millisecond},
		Interchange: htex.InterchangeConfig{
			Seed: 1, HeartbeatPeriod: 30 * time.Millisecond, HeartbeatThreshold: 150 * time.Millisecond,
		},
	})
	d, err := New(Config{Seed: 1, Registry: reg, Executors: []executor.Executor{ex}, Retries: 2, RetainRecords: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()

	var calls atomic.Int32
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	slowOnce, err := d.PythonApp("slowonce", func([]any, map[string]any) (any, error) {
		if calls.Add(1) == 1 {
			<-release // first attempt parks on the doomed manager until the test ends
		}
		return "recovered", nil
	})
	if err != nil {
		t.Fatal(err)
	}

	ix := ex.Interchange()
	victim, err := htex.StartManager(tr, ix.Addr(), "mgr-doomed", reg, htex.ManagerConfig{
		Workers: 1, HeartbeatPeriod: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitIntegration(t, func() bool { return ix.ManagerCount() == 1 })

	fut := slowOnce.Call()
	waitIntegration(t, func() bool { return calls.Load() >= 1 })
	// Bring up a healthy manager, then kill the one running the task.
	healthy, err := htex.StartManager(tr, ix.Addr(), "mgr-healthy", reg, htex.ManagerConfig{
		Workers: 1, HeartbeatPeriod: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Stop()
	waitIntegration(t, func() bool { return ix.ManagerCount() == 2 })
	victim.Stop()

	v, err := fut.Result()
	if err != nil || v != "recovered" {
		t.Fatalf("retry after manager loss = %v, %v", v, err)
	}
	// Task record shows the retry.
	var lostSeen bool
	for _, rec := range d.Graph().Tasks() {
		if rec.Attempts() > 0 {
			lostSeen = true
		}
	}
	if !lostSeen {
		t.Fatal("no task recorded a retry attempt")
	}
}

func TestCheckpointRestartAcrossDFKs(t *testing.T) {
	// §3.7: re-executing a program must not re-run apps already completed
	// with the same arguments — even across process restarts. The checkpoint
	// file is the one result store that crosses processes: the restarted
	// DFK starts with an empty memo table, preloads the file, and settles
	// every repeated call as memoized.
	cpPath := filepath.Join(t.TempDir(), "run", "checkpoint")
	var executions atomic.Int32
	appFn := func(args []any, _ map[string]any) (any, error) {
		executions.Add(1)
		return fmt.Sprintf("result-%v", args[0]), nil
	}

	run := func() *DFK {
		d := newHTEXDFK(t, 1, 2, func(c *Config) {
			c.Memoize = true
			c.Checkpoint = cpPath
		})
		workApp, err := d.PythonApp("cpwork", appFn, WithVersion("v1"))
		if err != nil {
			t.Fatal(err)
		}
		var futs []*future.Future
		for i := 0; i < 5; i++ {
			futs = append(futs, workApp.Call(i))
		}
		if err := future.Wait(futs...); err != nil {
			t.Fatal(err)
		}
		for i, f := range futs {
			if v, _ := f.Result(); v != fmt.Sprintf("result-%d", i) {
				t.Fatalf("task %d = %v", i, v)
			}
		}
		if err := d.Shutdown(); err != nil {
			t.Fatal(err)
		}
		return d
	}
	run()
	if executions.Load() != 5 {
		t.Fatalf("first run executed %d tasks", executions.Load())
	}
	d := run() // the "restarted program"
	if executions.Load() != 5 {
		t.Fatalf("restart re-executed: %d total executions, want 5", executions.Load())
	}
	if n := d.Summary()["memoized"]; n != 5 {
		t.Fatalf("restart settled %d tasks as memoized, want 5: %v", n, d.Summary())
	}
	if hits, _ := d.Memoizer().Stats(); hits != 5 {
		t.Fatalf("restart scored %d memo hits, want 5", hits)
	}
}

func TestMonitoringAcrossFullStack(t *testing.T) {
	store := monitor.NewStore()
	d := newHTEXDFK(t, 1, 2, func(c *Config) { c.Monitor = store })
	work, err := d.PythonApp("monwork", func([]any, map[string]any) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	var futs []*future.Future
	for i := 0; i < 10; i++ {
		futs = append(futs, work.Call(i))
	}
	if err := future.Wait(futs...); err != nil {
		t.Fatal(err)
	}
	counts := store.StateCounts()
	if counts["done"] != 10 {
		t.Fatalf("monitored done = %v", counts)
	}
}

func TestHTEXCommandChannelThroughDFK(t *testing.T) {
	d := newHTEXDFK(t, 2, 1, nil)
	exAny, _ := d.Executor("htex")
	hx := exAny.(*htex.Executor)
	waitIntegration(t, func() bool { return hx.Interchange().ManagerCount() == 2 })
	reps, err := hx.Command("MANAGERS", "", 2*time.Second)
	if err != nil || len(reps) != 2 {
		t.Fatalf("managers via command channel: %v, %v", reps, err)
	}
}

func TestLargeFanOutOverHTEX(t *testing.T) {
	d := newHTEXDFK(t, 4, 4, nil)
	work, err := d.PythonApp("fan", func(args []any, _ map[string]any) (any, error) {
		return args[0], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	futs := work.Map1(rangeAny(n))
	for i, f := range futs {
		v, err := f.Result()
		if err != nil || v != i {
			t.Fatalf("task %d: %v %v", i, v, err)
		}
	}
	if got := d.Summary()["done"]; got != n {
		t.Fatalf("done = %d", got)
	}
}

func rangeAny(n int) []any {
	out := make([]any, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func waitIntegration(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("integration wait timed out")
}
