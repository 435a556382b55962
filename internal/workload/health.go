package workload

import (
	"context"
	"errors"
	"slices"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/dfk"
	"repro/internal/future"
	"repro/internal/health"
	"repro/internal/monitor"
)

// HealthConfig shapes one self-healing run: a bulk workload across a
// threadpool and an HTEX pool driven through a seeded manager kill-storm,
// plus one poison task that decapitates every manager that dequeues it. The
// run asserts the retry plane's guarantees: goodput recovers through breaker
// failover, the poison task is quarantined after exactly the configured kill
// count, and no task is lost or double-delivered.
type HealthConfig struct {
	// Seed fixes the kill schedule, executor selection, and backoff jitter.
	Seed int64
	// Tasks is the bulk task count (default 160).
	Tasks int
	// Watchdog bounds the whole run (default 90s).
	Watchdog time.Duration
}

// The deployment and budgets every self-healing run uses.
const (
	healthWorkers = 4 // threadpool size
	// healthManagers is the HTEX manager count; it must exceed
	// poisonKills+stormKills so the pool retains capacity.
	healthManagers   = 8
	healthMgrWorkers = 2 // worker goroutines per manager
	// healthRetries is the charged per-task retry budget; class-free retries
	// ride on top of it.
	healthRetries = 8
	// healthTaskTimeout bounds one attempt — manager-loss detection must land
	// inside it so kills classify as executor-lost, not timeout.
	healthTaskTimeout = time.Second
	// poisonKills is the distinct-manager kill count that quarantines the
	// poison task. The kill rule's fire budget matches it.
	poisonKills = 3
	// stormKills is how many additional managers the background kill-storm
	// may take down while dequeuing bulk tasks.
	stormKills = 2
)

func (c *HealthConfig) normalize() {
	setDefault(&c.Tasks, 160)
	setDefault(&c.Watchdog, 90*time.Second)
}

// HealthResult reports one self-healing run.
type HealthResult struct {
	Submitted   int
	Done        int
	Failed      int      // bulk tasks lost (any is a violation)
	Kills       int      // manager kills the chaos plane fired
	PoisonKills []string // the quarantined task's distinct-manager kill history
	Transitions []string // htex breaker transitions, in order ("closed->open", ...)
	Backoffs    int      // KindHealth backoff events observed
	Retried     int      // tasks that took more than one launch
	MaxLaunches int      // largest per-task launch count observed
	Events      []chaos.Event
	Violations  []string
	Elapsed     time.Duration
}

func healthValue(i int) int { return i*5 + 3 }

// RunHealth executes the kill-storm workload and checks the self-healing
// invariants: the poison task quarantines after exactly poisonKills distinct
// manager kills, every bulk task completes exactly once with the right value
// (failing over around open breakers), the htex breaker demonstrably cycles
// closed→open→half-open, and the broker drains clean.
func RunHealth(cfg HealthConfig) (HealthResult, error) {
	cfg.normalize()
	inj := chaos.New(cfg.Seed, chaos.Plan{
		// The poison task kills every manager that dequeues it, up to the
		// quarantine bar.
		{Point: chaos.PointMgrKill, Act: chaos.ActKill, Prob: 1, Match: "app=poison", Max: poisonKills},
		// A background storm takes down managers dequeuing ordinary work, so
		// recovery is exercised on bulk tasks too (LOST bursts, failover).
		{Point: chaos.PointMgrKill, Act: chaos.ActKill, Prob: 0.9, Max: stormKills},
	})

	fx, err := newFixture(healthWorkers,
		poolSpec{Label: "htex", Seed: cfg.Seed, Managers: healthManagers, Workers: healthMgrWorkers},
		dfk.Config{
			Retries:     healthRetries,
			TaskTimeout: healthTaskTimeout,
			Health: &health.Options{
				Seed:            cfg.Seed,
				QuarantineAfter: poisonKills,
				// MinSamples 1 makes the breaker open on the first recorded loss:
				// the kill schedule, not sample accumulation, decides when the
				// breaker trips, which keeps the run deterministic per seed.
				Breaker: health.BreakerConfig{
					Window: 8, MinSamples: 1, FailureThreshold: 0.5,
					OpenFor: 250 * time.Millisecond, HalfOpenProbes: 2,
				},
			},
		})
	if err != nil {
		return HealthResult{}, err
	}
	bulk, err := fx.app("health-bulk", func(args []any, _ map[string]any) (any, error) {
		time.Sleep(500 * time.Microsecond)
		return healthValue(args[0].(int)), nil
	})
	if err != nil {
		return HealthResult{}, err
	}
	poisonApp, err := fx.app("poison", func([]any, map[string]any) (any, error) { return "survived", nil })
	if err != nil {
		return HealthResult{}, err
	}

	restore := chaos.Enable(inj)
	start := time.Now()
	ctx := context.Background()

	res := HealthResult{Submitted: cfg.Tasks + 1}
	vs := (*violations)(&res.Violations)

	futs := make([]*future.Future, 0, cfg.Tasks+1)
	for i := 0; i < cfg.Tasks; i++ {
		futs = append(futs, bulk.Submit(ctx, []any{i}))
	}
	// The poison task is pinned to HTEX: it cannot escape to the threadpool,
	// so every launch decapitates another manager until quarantine.
	poison := poisonApp.Submit(ctx, nil, dfk.WithExecutor("htex"))

	unsettled := awaitAll(append(futs, poison), start.Add(cfg.Watchdog))
	restore()
	res.Events = inj.Events()
	res.Kills = int(inj.Fires(chaos.PointMgrKill))
	if unsettled > 0 {
		vs.add("watchdog %v expired with %d/%d tasks unsettled (poison done=%v)",
			cfg.Watchdog, unsettled, len(futs)+1, poison.Done())
		fx.teardownWedged(vs)
		res.Elapsed = time.Since(start)
		return res, nil
	}

	// Poison invariant: quarantined with exactly the configured kill history —
	// not lost to the retry budget, not completed.
	if _, perr := poison.Result(); perr == nil {
		vs.add("poison task completed; it must be quarantined")
	} else {
		var qe *health.QuarantineError
		if !errors.As(perr, &qe) {
			vs.add("poison task failed with %v, want a QuarantineError", perr)
		} else {
			res.PoisonKills = qe.Kills
			if len(qe.Kills) != poisonKills {
				vs.add("poison kill history %v, want %d distinct managers", qe.Kills, poisonKills)
			}
		}
	}

	// Goodput invariant: every bulk task completes with the right value.
	res.Failed = checkValues(vs, futs, nil, healthValue)

	// Breaker invariant: the htex breaker demonstrably cycled — at least one
	// trip and at least one half-open probe window (the poison task cannot
	// reach kill #2 without probing through one).
	quarantines := 0
	for _, e := range fx.store.Events(monitor.KindHealth) {
		switch {
		case e.Detail == "breaker" && e.Executor == "htex":
			res.Transitions = append(res.Transitions, e.From+"->"+e.To)
		case strings.HasPrefix(e.Detail, "backoff"):
			res.Backoffs++
		case strings.HasPrefix(e.Detail, "quarantine"):
			quarantines++
		}
	}
	if !slices.Contains(res.Transitions, "closed->open") {
		vs.add("htex breaker never opened: transitions %v", res.Transitions)
	}
	if !slices.Contains(res.Transitions, "open->half-open") {
		vs.add("htex breaker never probed half-open: transitions %v", res.Transitions)
	}
	if res.Backoffs == 0 {
		vs.add("no backoff events: retries re-entered dispatch inline")
	}
	if quarantines != 1 {
		vs.add("quarantine events = %d, want exactly 1", quarantines)
	}

	// Broker drain: no in-flight leak survived the kill-storm.
	fx.checkDrained(vs, -1)

	// Launches are bounded by the charged budget plus the free per-class
	// allowances (executor-lost 6 + transient 8).
	const freeAllowance = 14
	ls := checkExactlyOnce(vs, fx.store, healthRetries+freeAllowance, nil)
	res.Retried, res.MaxLaunches = ls.Retried, ls.MaxLaunches
	res.Done = fx.d.Summary()["done"]
	if res.Done != cfg.Tasks {
		vs.add("done = %d, want %d bulk tasks", res.Done, cfg.Tasks)
	}

	if err := fx.d.Shutdown(); err != nil {
		vs.add("shutdown: %v", err)
	}
	res.Elapsed = time.Since(start)
	return res, nil
}
