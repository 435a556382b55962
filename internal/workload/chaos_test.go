package workload

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/dfk"
	"repro/internal/executor"
	"repro/internal/executor/htex"
	"repro/internal/executor/threadpool"
	"repro/internal/future"
	"repro/internal/monitor"
	"repro/internal/provider"
	"repro/internal/serialize"
	"repro/internal/simnet"
)

// chaosSeeds returns the seed matrix: CHAOS_SEEDS (comma-separated) when
// set — the CI chaos job pins one seed per matrix leg, and a failing seed is
// re-run locally the same way — else the default five.
func chaosSeeds(t *testing.T) []int64 {
	t.Helper()
	env := os.Getenv("CHAOS_SEEDS")
	if env == "" {
		return []int64{1, 2, 3, 4, 5}
	}
	var seeds []int64
	for _, f := range strings.Split(env, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEEDS entry %q: %v", f, err)
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// dumpChaosLog writes a run's seed and fired-fault schedule to
// CHAOS_LOG_DIR (when set) so CI can attach the reproduction recipe to a
// failure artifact.
func dumpChaosLog(t *testing.T, name string, seed int64, res ChaosResult) {
	dir := os.Getenv("CHAOS_LOG_DIR")
	if dir == "" {
		return
	}
	var b strings.Builder
	fmt.Fprintf(&b, "scenario: %s\nseed: %d\nreproduce: CHAOS_SEEDS=%d go test ./internal/workload/ -run TestChaosRecoverySeeds -race -count=1\n", name, seed, seed)
	fmt.Fprintf(&b, "submitted=%d done=%d memoized=%d failed=%d executions=%d retried=%d elapsed=%v\n",
		res.Submitted, res.Done, res.Memoized, res.Failed, res.Executions, res.Retried, res.Elapsed)
	for _, v := range res.Violations {
		fmt.Fprintf(&b, "VIOLATION: %s\n", v)
	}
	for _, e := range res.Events {
		fmt.Fprintf(&b, "event: %s\n", e)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("chaos log dir: %v", err)
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("chaos_%s_seed%d.log", name, seed))
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Logf("chaos log write: %v", err)
	}
}

// TestChaosRecoverySeeds is the acceptance matrix: the reference
// multi-executor workload, under the full default fault plan, upholds every
// recovery invariant for each seed. Checkpointing is enabled so the
// memo/checkpoint-consistency invariant is armed too.
func TestChaosRecoverySeeds(t *testing.T) {
	for _, seed := range chaosSeeds(t) {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			res, err := RunChaos(ChaosConfig{
				Seed:       seed,
				Checkpoint: filepath.Join(t.TempDir(), "chaos.ckpt"),
			})
			if err != nil {
				t.Fatal(err)
			}
			dumpChaosLog(t, "recovery", seed, res)
			for _, v := range res.Violations {
				t.Errorf("violation: %s", v)
			}
			if t.Failed() {
				t.Logf("reproduce with: CHAOS_SEEDS=%d go test ./internal/workload/ -run TestChaosRecoverySeeds -race -count=1", seed)
				for _, e := range res.Events {
					t.Logf("event: %s", e)
				}
			}
			if res.Done == 0 {
				t.Fatal("no task completed")
			}
			if res.Memoized == 0 {
				t.Error("no memo hit — duplicate submissions not exercising memoization")
			}
		})
	}
}

// TestChaosScheduleReproducible re-runs one seed and asserts the pure-function
// property that makes a CI seed replayable: the decision for a given
// (point, rule, matched-hit) is fixed — every firing observed in both runs
// must agree on action and delay, and a (rule, hit) pair never fires twice
// within a run. (Which hits get to fire CAN differ across runs: sibling
// rules at a point advance their counters on every hit, so under
// concurrency the pairing of sibling hit indices within one call skews
// with the interleaving, and a hit fired in one run may be suppressed by a
// sibling winning that call in the other. Hit counts also track traffic
// volume, which retries change.)
func TestChaosScheduleReproducible(t *testing.T) {
	run := func() ChaosResult {
		res, err := RunChaos(ChaosConfig{Seed: 7, Tasks: 120})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) > 0 {
			t.Fatalf("violations: %v", res.Violations)
		}
		return res
	}
	a, b := run(), run()

	decisions := func(evs []chaos.Event) map[string]string {
		out := make(map[string]string)
		for _, e := range evs {
			k := fmt.Sprintf("%s/r%d#%d", e.Point, e.Rule, e.Hit)
			v := fmt.Sprintf("%s %v", e.Act, e.Delay)
			if prev, dup := out[k]; dup {
				t.Fatalf("%s fired twice in one run: %q then %q", k, prev, v)
			}
			out[k] = v
		}
		return out
	}
	da, db := decisions(a.Events), decisions(b.Events)
	if len(da) == 0 {
		t.Fatal("run fired no faults")
	}
	common := 0
	for k, va := range da {
		vb, ok := db[k]
		if !ok {
			continue
		}
		common++
		if va != vb {
			t.Fatalf("decision diverged at %s: %q vs %q", k, va, vb)
		}
	}
	if common == 0 {
		t.Fatalf("no common (rule, hit) firings between runs (%d vs %d events) — schedules are unrelated", len(da), len(db))
	}
}

// TestChaosManagerKillRecovery is the end-to-end crash-recovery test: a
// manager is killed mid-batch through the chaos plane (abrupt death, no
// BYE), and every outstanding task must still complete — the interchange
// reports the held tasks lost, the DFK retries them onto surviving capacity
// — with each result observed exactly once.
func TestChaosManagerKillRecovery(t *testing.T) {
	// The kill fires on the schedule's first hit at the kill point: the
	// first task any manager dequeues kills that manager while the rest of
	// the batch sits in its buffer — mid-batch by construction.
	inj := chaos.New(1, chaos.Plan{
		{Point: chaos.PointMgrKill, Act: chaos.ActKill, Prob: 1.0, Max: 1},
	})
	restore := chaos.Enable(inj)
	defer restore()

	reg := serialize.NewRegistry()
	var execs atomic.Int64
	hx := htex.New(htex.Config{
		Label:      "htex",
		Transport:  simnet.NewNetwork(0),
		Registry:   reg,
		Provider:   provider.NewLocal(provider.Config{NodesPerBlock: 3}),
		InitBlocks: 1,
		// Manager heartbeat must beat the interchange's loss threshold —
		// the default 200ms period is rejected against a 150ms threshold.
		Manager: htex.ManagerConfig{Workers: 2, Prefetch: 2, HeartbeatPeriod: 50 * time.Millisecond},
		Interchange: htex.InterchangeConfig{
			Seed:               1,
			HeartbeatPeriod:    30 * time.Millisecond,
			HeartbeatThreshold: 150 * time.Millisecond,
		},
	})
	// Pooling stays on: the kill/retry churn must recycle records cleanly,
	// so retry evidence is read from the monitoring stream instead.
	store := monitor.NewStore()
	d, err := dfk.New(dfk.Config{
		Registry:  reg,
		Executors: []executor.Executor{hx},
		Retries:   4,
		Seed:      1,
		Monitor:   store,
	})
	if err != nil {
		t.Fatal(err)
	}
	app, err := d.PythonApp("kill-f", func(args []any, _ map[string]any) (any, error) {
		execs.Add(1)
		time.Sleep(time.Millisecond)
		return args[0].(int) * 2, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	const n = 64
	futs := make([]*future.Future, n)
	completions := make([]atomic.Int64, n)
	for i := 0; i < n; i++ {
		i := i
		futs[i] = app.Submit(context.Background(), []any{i})
		futs[i].AddDoneCallback(func(*future.Future) { completions[i].Add(1) })
	}
	for i, f := range futs {
		v, err := f.Result()
		if err != nil {
			t.Fatalf("task %d lost across manager kill: %v", i, err)
		}
		if v != i*2 {
			t.Fatalf("task %d = %v, want %d", i, v, i*2)
		}
	}
	if got := inj.Fires(chaos.PointMgrKill); got != 1 {
		t.Fatalf("kill fired %d times, want 1", got)
	}
	// The kill must actually have cost tasks a retry: at least one task
	// launched more than once, with the retries flowing through the lost-
	// task requeue path. The records themselves are recycled by now, so the
	// launch counts come from the task-state event history.
	launches := make(map[int64]int)
	for _, e := range store.Events(monitor.KindTaskState) {
		if e.To == "launched" {
			launches[e.TaskID]++
		}
	}
	retried := 0
	for _, c := range launches {
		if c > 1 {
			retried++
		}
	}
	if retried == 0 {
		t.Fatal("manager kill cost no task a retry — the crash was not mid-batch")
	}
	// Kill-path conclusion: nothing is outstanding after the drain, and every
	// task concluded exactly once, despite mid-batch loss and ghost attempts.
	d.WaitAll()
	if got := d.Outstanding(); got != 0 {
		t.Fatalf("%d tasks outstanding after drain", got)
	}
	if s := d.Summary(); s["done"]+s["failed"]+s["memoized"] != n {
		t.Fatalf("tasks concluded = %v, want %d in all", s, n)
	}
	for i := range completions {
		if c := completions[i].Load(); c != 1 {
			t.Fatalf("task %d observed %d completions, want exactly 1", i, c)
		}
	}
	if err := d.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestChaosCheckpointResume is the checkpoint-resume integration test: a
// workload runs with Config.Checkpoint, the DFK is torn down mid-run (half
// the tasks canceled before they can complete), and a restarted DFK over the
// same file must memo-hit every completed task and re-execute — to the same
// values — only the ones the teardown interrupted.
func TestChaosCheckpointResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "resume.ckpt")
	reg1 := serialize.NewRegistry()
	const n = 40
	var execs1 [n]atomic.Int64

	pool1 := threadpool.New("pool", 4, reg1)
	d1, err := dfk.New(dfk.Config{
		Registry: reg1, Executors: []executor.Executor{pool1},
		Memoize: true, Checkpoint: ckpt, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	app1, err := d1.PythonApp("resume-f", func(args []any, _ map[string]any) (any, error) {
		i := args[0].(int)
		execs1[i].Add(1)
		return i*10 + 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// First half completes; second half is canceled before launch — the
	// mid-run teardown. Canceled tasks never reach the memo table.
	gate := make(chan struct{})
	gateApp, err := d1.PythonApp("resume-gate", func([]any, map[string]any) (any, error) {
		<-gate
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	doneHalf := make([]*future.Future, n/2)
	for i := 0; i < n/2; i++ {
		doneHalf[i] = app1.Submit(context.Background(), []any{i})
	}
	if err := future.Wait(doneHalf...); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	gateFut := gateApp.Submit(context.Background(), nil)
	interrupted := make([]*future.Future, 0, n/2)
	for i := n / 2; i < n; i++ {
		// Dependency on the gate keeps these unlaunched until canceled.
		interrupted = append(interrupted, app1.Submit(ctx, []any{i, gateFut}))
	}
	cancel()
	for _, f := range interrupted {
		if _, err := f.Result(); !errors.Is(err, dfk.ErrCanceled) {
			t.Fatalf("interrupted task: %v, want ErrCanceled", err)
		}
	}
	close(gate)
	if err := d1.Shutdown(); err != nil {
		t.Fatal(err)
	}

	// Restart against the same checkpoint: same app name and version, so
	// memo keys match across processes.
	reg2 := serialize.NewRegistry()
	var execs2 [n]atomic.Int64
	pool2 := threadpool.New("pool", 4, reg2)
	d2, err := dfk.New(dfk.Config{
		Registry: reg2, Executors: []executor.Executor{pool2},
		Memoize: true, Checkpoint: ckpt, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Shutdown()
	app2, err := d2.PythonApp("resume-f", func(args []any, _ map[string]any) (any, error) {
		i := args[0].(int)
		execs2[i].Add(1)
		return i*10 + 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	futs := make([]*future.Future, n)
	for i := 0; i < n; i++ {
		futs[i] = app2.Submit(context.Background(), []any{i})
	}
	for i, f := range futs {
		v, err := f.Result()
		if err != nil {
			t.Fatalf("resumed task %d: %v", i, err)
		}
		if v != i*10+1 {
			t.Fatalf("resumed task %d = %v, want %d", i, v, i*10+1)
		}
	}
	// The records are recycled once terminal; the state tallies (which fold
	// in pruned counts) carry the memo-hit/re-execution split.
	sum := d2.Summary()
	memoized, reexecuted := sum["memoized"], sum["done"]
	if memoized != n/2 || reexecuted != n/2 {
		t.Fatalf("memoized=%d reexecuted=%d, want %d/%d", memoized, reexecuted, n/2, n/2)
	}
	for i := 0; i < n/2; i++ {
		if execs2[i].Load() != 0 {
			t.Fatalf("checkpointed task %d re-executed on resume", i)
		}
	}
	for i := n / 2; i < n; i++ {
		if execs2[i].Load() != 1 {
			t.Fatalf("interrupted task %d executed %d times on resume, want 1", i, execs2[i].Load())
		}
	}
}

// TestChaosInertPlanIsCleanRun pins that an armed-but-empty plan changes
// nothing: the workload completes with no retries and no fired events.
func TestChaosInertPlanIsCleanRun(t *testing.T) {
	res, err := RunChaos(ChaosConfig{Seed: 3, Tasks: 60, Plan: chaos.Plan{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) > 0 {
		t.Fatalf("violations: %v", res.Violations)
	}
	if len(res.Events) != 0 {
		t.Fatalf("inert plan fired events: %v", res.Events)
	}
	if res.Failed != 0 {
		t.Fatalf("failed=%d", res.Failed)
	}
}

// TestChaosDroppedFrameLeavesNoGhosts pins the ghost-attempt cleanup: a
// dropped client→interchange frame makes its tasks time out and retry under
// fresh wire ids, and the abandoned attempts must be struck from the htex
// client (pending map, inflight map, Outstanding) rather than leaking for
// the life of the process and inflating the scheduler's load signal.
func TestChaosDroppedFrameLeavesNoGhosts(t *testing.T) {
	inj := chaos.New(31, chaos.Plan{
		{Point: chaos.PointClientSend, Act: chaos.ActDrop, Prob: 1.0, Max: 1},
	})
	restore := chaos.Enable(inj)
	defer restore()

	reg := serialize.NewRegistry()
	hx := htex.New(htex.Config{
		Label:      "htex",
		Transport:  simnet.NewNetwork(0),
		Registry:   reg,
		Provider:   provider.NewLocal(provider.Config{NodesPerBlock: 1}),
		InitBlocks: 1,
		Manager:    htex.ManagerConfig{Workers: 2, Prefetch: 2},
		Interchange: htex.InterchangeConfig{
			Seed: 1, HeartbeatPeriod: 50 * time.Millisecond, HeartbeatThreshold: 10 * time.Second,
		},
	})
	d, err := dfk.New(dfk.Config{
		Registry:    reg,
		Executors:   []executor.Executor{hx},
		Retries:     3,
		TaskTimeout: 300 * time.Millisecond,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	app, err := d.PythonApp("ghost-f", func(args []any, _ map[string]any) (any, error) {
		return args[0], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	futs := make([]*future.Future, 6)
	for i := range futs {
		futs[i] = app.Submit(context.Background(), []any{i})
	}
	for i, f := range futs {
		if v, err := f.Result(); err != nil || v != i {
			t.Fatalf("task %d: %v, %v", i, v, err)
		}
	}
	if inj.Fires(chaos.PointClientSend) != 1 {
		t.Fatalf("drop fired %d times, want 1", inj.Fires(chaos.PointClientSend))
	}
	// The dropped frame's attempts must be fully struck from the client.
	deadline := time.Now().Add(5 * time.Second)
	for hx.Outstanding() != 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if n := hx.Outstanding(); n != 0 {
		t.Fatalf("htex client still tracks %d ghost attempts after all futures settled", n)
	}
}
