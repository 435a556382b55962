package workload

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/dfk"
	"repro/internal/future"
	"repro/internal/memo"
	"repro/internal/monitor"
	"repro/internal/serialize"
)

// ChaosConfig shapes one chaos-plane run: a reference multi-executor
// workload (threadpool + HTEX over the in-memory network) driven under a
// seeded fault schedule, with system invariants asserted afterwards. The
// same seed always arms the same fault schedule (see internal/chaos), so a
// failing run is reproduced by re-running its seed.
type ChaosConfig struct {
	// Seed fixes the fault schedule, the DFK's executor selection, and the
	// interchange's manager selection.
	Seed int64
	// Tasks is the number of distinct tasks submitted (default 240). The
	// first Tasks/8 arguments are submitted a second time, exercising
	// memoization consistency under chaos.
	Tasks int
	// Checkpoint, when non-empty, enables memo checkpointing to this file
	// and arms the post-run checkpoint-consistency invariant.
	Checkpoint string
	// Plan is the fault plan (nil = DefaultChaosPlan()). An empty non-nil
	// plan runs the workload with chaos armed but inert.
	Plan chaos.Plan
}

// The deployment and budgets every chaos run uses.
const (
	chaosWorkers    = 4 // threadpool executor size
	chaosManagers   = 3 // HTEX managers
	chaosMgrWorkers = 2 // worker goroutines per manager
	// chaosRetries is the per-task retry budget: chaos runs need headroom,
	// every dropped frame or killed manager consumes an attempt.
	chaosRetries = 8
	// chaosTaskTimeout bounds one attempt; it is the recovery backstop for
	// silently lost work (dropped frames, results lost to corruption).
	chaosTaskTimeout = 700 * time.Millisecond
	// chaosWatchdog bounds the whole run; a task not terminal by then is
	// reported as the "task stuck" invariant violation.
	chaosWatchdog = 90 * time.Second
)

func (c *ChaosConfig) normalize() {
	setDefault(&c.Tasks, 240)
	if c.Plan == nil {
		c.Plan = DefaultChaosPlan()
	}
}

// DefaultChaosPlan arms every fault point with modest probabilities: enough
// that a run exercises drop, duplication, corruption, stream resync, manager
// death, injected panics, and dispatch failures, while a chaosRetries-deep
// budget still drives every task to completion.
func DefaultChaosPlan() chaos.Plan {
	return chaos.Plan{
		// Client → interchange task stream.
		{Point: chaos.PointClientSend, Act: chaos.ActDrop, Prob: 0.02},
		{Point: chaos.PointClientSend, Act: chaos.ActDup, Prob: 0.03},
		{Point: chaos.PointClientSend, Act: chaos.ActCorrupt, Prob: 0.03},
		{Point: chaos.PointClientSend, Act: chaos.ActDelay, Prob: 0.05, Delay: time.Millisecond},
		// Interchange → manager task stream.
		{Point: chaos.PointIxTasks, Act: chaos.ActCorrupt, Prob: 0.02},
		{Point: chaos.PointIxTasks, Act: chaos.ActTruncate, Prob: 0.01},
		{Point: chaos.PointIxTasks, Act: chaos.ActDelay, Prob: 0.04, Delay: time.Millisecond},
		// Manager → interchange result stream.
		{Point: chaos.PointMgrResults, Act: chaos.ActCorrupt, Prob: 0.02},
		{Point: chaos.PointMgrResults, Act: chaos.ActDup, Prob: 0.02},
		// Interchange → client result relay. Corruption here is the most
		// expensive fault (recovery waits out the attempt timeout), so it is
		// rare; duplication is cheap and dedups at the client.
		{Point: chaos.PointIxResults, Act: chaos.ActCorrupt, Prob: 0.01},
		{Point: chaos.PointIxResults, Act: chaos.ActDup, Prob: 0.02},
		// Abrupt manager death, at most one per run so a three-manager pool
		// always retains capacity.
		{Point: chaos.PointMgrKill, Act: chaos.ActKill, Prob: 0.004, Max: 1},
		// Execution kernel: real panics through the recovery sandbox, stalls
		// on both executor classes.
		{Point: chaos.PointExecRun, Act: chaos.ActPanic, Prob: 0.01},
		{Point: chaos.PointExecRun, Act: chaos.ActStall, Prob: 0.02, Delay: 2 * time.Millisecond},
		// DFK dispatch pipeline.
		{Point: chaos.PointSubmitFail, Act: chaos.ActFail, Prob: 0.02},
		{Point: chaos.PointLaneDelay, Act: chaos.ActDelay, Prob: 0.05, Delay: 500 * time.Microsecond},
	}
}

// ChaosResult reports one run: outcome tallies, the fired-fault log, and any
// invariant violations (empty = the run upheld every recovery guarantee).
type ChaosResult struct {
	Submitted  int
	Done       int
	Memoized   int
	Failed     int
	Executions int64 // app-body executions; > Done means retries/duplicates ran (legal)
	Retried    int   // tasks that took more than one attempt
	MaxAttempt int   // largest per-task attempt count observed
	Events     []chaos.Event
	Violations []string
	Elapsed    time.Duration
}

// chaosValue is the reference app's deterministic function of the task
// index, so every invariant can recompute the expected value.
func chaosValue(i int) int { return i*3 + 7 }

// RunChaos executes the reference workload under cfg's fault schedule and
// checks the recovery invariants: every task terminal (none lost, none
// stuck), every success carries the right value exactly once, retry counts
// within budget, the broker fully drained, and — when checkpointing — the
// checkpoint file consistent with delivered results.
func RunChaos(cfg ChaosConfig) (ChaosResult, error) {
	cfg.normalize()
	inj := chaos.New(cfg.Seed, cfg.Plan)

	// Chaos runs with record pooling ON (the default): terminal records are
	// pruned and recycled while faults fire, so the run doubles as the
	// use-after-recycle stress (generation-guard panics would fail the run).
	fx, err := newFixture(chaosWorkers,
		poolSpec{Label: "htex", Seed: cfg.Seed, Managers: chaosManagers, Workers: chaosMgrWorkers},
		dfk.Config{
			Retries:     chaosRetries,
			Memoize:     true,
			Checkpoint:  cfg.Checkpoint,
			TaskTimeout: chaosTaskTimeout,
		})
	if err != nil {
		return ChaosResult{}, err
	}
	d := fx.d
	execs := make([]atomic.Int64, cfg.Tasks)
	appF, err := fx.app("chaos-f", func(args []any, _ map[string]any) (any, error) {
		i := args[0].(int)
		execs[i].Add(1)
		time.Sleep(500 * time.Microsecond)
		return chaosValue(i), nil
	})
	if err != nil {
		return ChaosResult{}, err
	}

	// Arm the fault plane only around the workload itself, so DFK/executor
	// startup is never faulted (the paper's fault model is runtime failure,
	// not failed deployment).
	restore := chaos.Enable(inj)
	start := time.Now()
	// The watchdog covers every wait in the run, including the memoization
	// warm-up below.
	deadline := start.Add(chaosWatchdog)

	ctx := context.Background()
	submit := func(i int) *future.Future {
		// A third pinned to each executor, a third routed by the scheduler:
		// chaos has to hold invariants on every dispatch shape.
		switch i % 3 {
		case 0:
			return appF.Submit(ctx, []any{i}, dfk.WithExecutor("pool"))
		case 1:
			return appF.Submit(ctx, []any{i}, dfk.WithExecutor("htex"))
		default:
			return appF.Submit(ctx, []any{i})
		}
	}

	dups := cfg.Tasks / 8
	futs := make([]*future.Future, 0, cfg.Tasks+dups)
	idx := make([]int, 0, cap(futs))
	for i := 0; i < cfg.Tasks; i++ {
		futs = append(futs, submit(i))
		idx = append(idx, i)
	}

	res := ChaosResult{Submitted: cfg.Tasks}
	vs := (*violations)(&res.Violations)

	// Duplicate submissions exercise memoization under chaos from both
	// sides: the first half waits for its originals (guaranteed memo hits —
	// unless chaos failed the original), the second half races them
	// (legal double execution, reconciled by value).
	unsettled := awaitAll(futs[:dups/2], deadline)
	if unsettled == 0 {
		for i := 0; i < dups; i++ {
			futs = append(futs, submit(i))
			idx = append(idx, i)
		}
		res.Submitted = len(futs)
		unsettled = awaitAll(futs, deadline)
	}
	restore()
	res.Events = inj.Events()
	if unsettled > 0 {
		vs.add("watchdog %v expired with %d/%d tasks unsettled", chaosWatchdog, unsettled, len(futs))
		fx.teardownWedged(vs)
		res.Elapsed = time.Since(start)
		return res, nil
	}

	res.Failed = checkValues(vs, futs, idx, chaosValue)
	fx.checkDrained(vs, -1)
	// Each launch is one attempt: at most chaosRetries retries plus the first.
	ls := checkExactlyOnce(vs, fx.store, chaosRetries, nil)
	res.Retried = ls.Retried
	if ls.Retried > 0 {
		res.MaxAttempt = ls.MaxLaunches
	}
	sum := d.Summary()
	res.Done = sum["done"]
	res.Memoized = sum["memoized"]

	// Reclamation invariants: with pooling on, the drained graph is empty —
	// steady-state residency is the live frontier, so once every future has
	// settled (WaitAll orders us after the final retire) every record must
	// have been pruned and recycled, and the monitor must have seen pruning.
	d.WaitAll()
	if n := d.Graph().LiveNodes(); n != 0 {
		vs.add("graph holds %d live records after drain (reclamation leak)", n)
	}
	if n := d.Graph().RecycledNodes(); n != int64(res.Submitted) {
		vs.add("recycled %d records, want %d (one per submission)", n, res.Submitted)
	}
	if len(fx.store.Events(monitor.KindGraph)) == 0 {
		vs.add("no graph-reclamation event emitted")
	}

	for i := range execs {
		n := execs[i].Load()
		res.Executions += n
		if n == 0 && res.Failed == 0 {
			vs.add("task arg %d completed without ever executing", i)
		}
	}

	if err := d.Shutdown(); err != nil {
		vs.add("shutdown: %v", err)
	}

	// Checkpoint consistency: every distinct argument that completed must be
	// present in the persisted file under its recomputed memo key, with the
	// delivered value. Keys are recomputed from scratch — app name, body hash,
	// re-encoded args — because the records that carried them are recycled.
	if cfg.Checkpoint != "" {
		m := memo.New()
		if err := m.LoadCheckpoint(cfg.Checkpoint); err != nil {
			vs.add("checkpoint reload: %v", err)
		} else {
			entry, _ := fx.reg.Lookup("chaos-f")
			seen := make(map[int]bool)
			for k, f := range futs {
				i := idx[k]
				if seen[i] {
					continue
				}
				seen[i] = true
				delivered, ferr := f.Result()
				if ferr != nil {
					continue // lost to an exhausted retry budget; not checkpointed
				}
				p, perr := serialize.EncodeArgs([]any{i}, nil)
				if perr != nil {
					vs.add("re-encode args %d: %v", i, perr)
					continue
				}
				key := memo.KeyFromPayload("chaos-f", entry.BodyHash(), p)
				p.Release()
				got, ok := m.Lookup(key)
				if !ok {
					vs.add("completed task arg %d missing from checkpoint", i)
					continue
				}
				if got != delivered {
					vs.add("task arg %d checkpoint value %v != delivered %v", i, got, delivered)
				}
			}
		}
	}

	res.Elapsed = time.Since(start)
	return res, nil
}
