package workload

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/dfk"
	"repro/internal/future"
	"repro/internal/serialize"
)

// This file holds the two arms of the sharded-control-plane scenario:
//
//   - RunShardFailover kills one interchange shard of a sharded HTEX pool
//     mid-workload (through the chaos plane, addressed by shard label) and
//     asserts the failover contract: only the dead shard's outstanding set
//     is re-executed, the survivors keep draining untouched, and every task
//     still completes exactly once.
//   - RunShardScaling drives the same total manager capacity through S
//     shards and reports client-observed throughput, so CI can hold the
//     horizontal-scaling bar (N shards beat one broker once the single
//     router is the bottleneck).

// ShardFailoverConfig shapes one failover run.
type ShardFailoverConfig struct {
	// Seed fixes the chaos schedule, manager selection, and DFK jitter.
	Seed int64
	// Shards is the interchange shard count (default 4, min 2 — killing the
	// only shard is a different scenario).
	Shards int
	// Victim is the shard index the chaos plan kills (default 1).
	Victim int
	// Tasks is the workload size (default 160).
	Tasks int
	// SchedulerPolicy names the DFK's executor-selection policy ("" = the
	// default random pick). The acceptance matrix drives "locality" through
	// here: digest-aware routing must survive a shard kill unchanged.
	SchedulerPolicy string
}

func (c *ShardFailoverConfig) normalize() {
	if c.Shards < 2 {
		c.Shards = 4
	}
	if c.Victim < 0 || c.Victim >= c.Shards {
		c.Victim = 1
	}
	setDefault(&c.Tasks, 160)
}

// The deployment and budgets every failover run uses.
const (
	failoverManagers   = 8 // total managers across all shards
	failoverMgrWorkers = 1 // worker goroutines per manager
	// failoverTaskWork is each task's simulated work — long enough that the
	// victim shard still holds work when the kill lands.
	failoverTaskWork = 15 * time.Millisecond
	// failoverRetries is the charged per-task retry budget; shard loss
	// classifies as executor-lost, which also has free-retry headroom.
	failoverRetries     = 8
	failoverTaskTimeout = 5 * time.Second // bounds one attempt
	failoverWatchdog    = 90 * time.Second
)

// ShardFailoverResult reports one failover run.
type ShardFailoverResult struct {
	Submitted     int
	Done          int
	Retried       int   // tasks that took more than one launch
	ExtraLaunches int   // total launches beyond one per task
	VictimHeld    int   // attempts the system failed on the victim's account (htex LostByShard)
	SurvivorMgrs  []int // per-survivor-shard manager counts after the kill
	ShardsAlive   int
	ShardsTotal   int
	Health        string // shard liveness after the kill, from ShardsAlive/ShardsTotal ("degraded")
	Kills         int    // chaos PointIxKill fires (must be exactly 1)
	Events        []chaos.Event
	Violations    []string
	Elapsed       time.Duration
}

func shardValue(i int) int { return i*7 + 1 }

// shardHealth names alive of total shards: "closed" when every shard is
// alive, "down" when none is, "degraded" in between.
func shardHealth(alive, total int) string {
	switch alive {
	case total:
		return "closed"
	case 0:
		return "down"
	}
	return "degraded"
}

// RunShardFailover executes the kill-one-shard scenario. The chaos plan is
// armed only once the victim shard demonstrably holds outstanding work, so
// the kill always lands mid-flight; the injector addresses the victim by its
// shard label ("htex[1]"), proving the chaos plane resolves individual
// shards of one logical executor.
func RunShardFailover(cfg ShardFailoverConfig) (ShardFailoverResult, error) {
	cfg.normalize()
	victimLabel := fmt.Sprintf("htex[%d]", cfg.Victim)
	inj := chaos.New(cfg.Seed, chaos.Plan{
		{Point: chaos.PointIxKill, Act: chaos.ActKill, Prob: 1, Match: victimLabel, Max: 1},
	})

	// No manager dies in this scenario, so the loss threshold is slack: a
	// heartbeat starved on a loaded 1–2 core runner must not read as kill
	// fallout on a survivor.
	fx, err := newFixture(0,
		poolSpec{Label: "htex", Seed: cfg.Seed, Shards: cfg.Shards, Managers: failoverManagers,
			Workers: failoverMgrWorkers, HeartbeatThreshold: failoverTaskTimeout},
		dfk.Config{
			Retries:         failoverRetries,
			TaskTimeout:     failoverTaskTimeout,
			SchedulerPolicy: cfg.SchedulerPolicy,
		})
	if err != nil {
		return ShardFailoverResult{}, err
	}
	hx, d := fx.hx, fx.d
	app, err := fx.app("shard-bulk", func(args []any, _ map[string]any) (any, error) {
		time.Sleep(failoverTaskWork)
		return shardValue(args[0].(int)), nil
	})
	if err != nil {
		return ShardFailoverResult{}, err
	}

	start := time.Now()
	res := ShardFailoverResult{Submitted: cfg.Tasks, ShardsTotal: cfg.Shards}
	vs := (*violations)(&res.Violations)

	// Every shard must hold managers before work flows, or placement spills
	// around empty shards and the victim may carry nothing worth killing. The
	// whole fleet must be registered too — a partial count would read late
	// registrations as kill fallout on the survivors.
	var preMgrs []int
	if !waitUntil(time.Now().Add(10*time.Second), func() bool {
		preMgrs = preMgrs[:0]
		total := 0
		for i := 0; i < hx.ShardCount(); i++ {
			preMgrs = append(preMgrs, hx.Shard(i).ManagerCount())
			total += preMgrs[i]
		}
		return total == failoverManagers && !slices.Contains(preMgrs, 0)
	}) {
		_ = d.Shutdown()
		return res, fmt.Errorf("shard failover: managers per shard %v, want %d with none empty", preMgrs, failoverManagers)
	}

	ctx := context.Background()
	futs := make([]*future.Future, 0, cfg.Tasks)
	for i := 0; i < cfg.Tasks; i++ {
		futs = append(futs, app.Submit(ctx, []any{i}))
	}

	// Arm the kill only once the victim holds outstanding work, so it lands
	// mid-flight: the next frame its interchange handles (a heartbeat at the
	// latest) detonates. This poll only gates the arming — the dispatch
	// pipeline is still routing the burst, so what the victim holds now says
	// nothing about what it will hold at the kill.
	waitUntil(time.Now().Add(10*time.Second), func() bool { return hx.InflightByShard()[cfg.Victim] > 0 })
	restore := chaos.Enable(inj)
	unsettled := awaitAll(futs, time.Now().Add(failoverWatchdog))
	restore()
	res.Events = inj.Events()
	res.Kills = int(inj.Fires(chaos.PointIxKill))
	if unsettled > 0 {
		vs.add("watchdog %v expired with %d/%d tasks unsettled", failoverWatchdog, unsettled, len(futs))
		fx.teardownWedged(vs)
		res.Elapsed = time.Since(start)
		return res, nil
	}

	if res.Kills != 1 {
		vs.add("chaos fired %d shard kills, want exactly 1", res.Kills)
	}

	// Goodput invariant: every task completes with the right value — the
	// victim's lost set re-executes on the survivors via the retry plane.
	checkValues(vs, futs, nil, shardValue)

	// Membership invariant: exactly the victim is gone, so the executor runs
	// degraded without going down.
	res.ShardsAlive, res.ShardsTotal = hx.ShardCounts()
	if res.ShardsAlive != cfg.Shards-1 {
		vs.add("shards alive = %d, want %d (only the victim dead)", res.ShardsAlive, cfg.Shards-1)
	}
	res.Health = shardHealth(res.ShardsAlive, res.ShardsTotal)
	// Blast-radius invariant: the survivors' manager fleets are untouched —
	// the kill must not cascade past the victim's endpoint.
	for i := 0; i < hx.ShardCount(); i++ {
		if i == cfg.Victim {
			continue
		}
		n := hx.Shard(i).ManagerCount()
		res.SurvivorMgrs = append(res.SurvivorMgrs, n)
		if n != preMgrs[i] {
			vs.add("shard %d manager count %d, was %d before the kill — survivors must be untouched", i, n, preMgrs[i])
		}
	}

	// Exactly-once + bounded-requeue invariants: one terminal per task, and
	// re-execution bounded by what the system itself failed on the victim's
	// account. Tasks on the survivors never relaunch, so extra launches can
	// only come from the victim's set.
	ls := checkExactlyOnce(vs, fx.store, failoverRetries, nil)
	res.Retried, res.ExtraLaunches = ls.Retried, ls.ExtraLaunches
	res.VictimHeld = hx.LostByShard()[cfg.Victim]
	if res.Retried == 0 {
		vs.add("no task re-executed (the victim lost %d) — the kill missed the workload", res.VictimHeld)
	}
	checkBoundedReexec(vs, res.Retried, res.VictimHeld, fmt.Sprintf("the kill of shard %d", cfg.Victim))

	res.Done = d.Summary()["done"]
	if res.Done != cfg.Tasks {
		vs.add("done = %d, want %d", res.Done, cfg.Tasks)
	}
	fx.checkDrained(vs, cfg.Victim)

	if err := d.Shutdown(); err != nil {
		vs.add("shutdown: %v", err)
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// ShardScalingConfig shapes one throughput arm of the scaling comparison:
// the same total manager capacity behind S interchange shards, driven hard
// by parallel submitters.
type ShardScalingConfig struct {
	Seed int64
	// Shards is this arm's shard count (default 1).
	Shards int
	// Tasks is the total task count (default 4000).
	Tasks int
}

func (c *ShardScalingConfig) normalize() {
	setDefault(&c.Shards, 1)
	setDefault(&c.Tasks, 4000)
}

// What every scaling arm shares, so that only the shard count varies.
const (
	scalingManagers   = 8  // total managers, held constant across arms
	scalingMgrWorkers = 2  // workers per manager
	scalingSubmitters = 4  // parallel submitter goroutines
	scalingBatch      = 32 // tasks per SubmitBatch call
)

// ShardScalingResult reports one throughput arm.
type ShardScalingResult struct {
	Shards      int
	Tasks       int
	Elapsed     time.Duration
	TasksPerSec float64
}

// RunShardScaling drives Tasks no-op tasks through an S-shard HTEX pool and
// reports client-observed throughput. Compare arms at equal total manager
// capacity: the single-broker arm serializes every frame through one router
// goroutine, the sharded arm spreads them over S — the ratio is the
// horizontal scaling the shard layer buys (only observable with enough
// cores to actually run the routers in parallel; the CI bar is gated on
// that).
func RunShardScaling(cfg ShardScalingConfig) (ShardScalingResult, error) {
	cfg.normalize()
	reg := serialize.NewRegistry()
	if err := reg.Register("noop", func(args []any, _ map[string]any) (any, error) {
		return args[0], nil
	}); err != nil {
		return ShardScalingResult{}, err
	}

	// Throughput arm: deeper prefetch keeps the workers fed, and slack
	// heartbeat clocks keep a CPU-saturated run from reading a starved
	// manager as dead.
	hx := newPool(reg, poolSpec{
		Label: "htex", Seed: cfg.Seed, Shards: cfg.Shards,
		Managers: scalingManagers, Workers: scalingMgrWorkers, Prefetch: 2 * scalingMgrWorkers,
		HeartbeatPeriod: 100 * time.Millisecond, HeartbeatThreshold: time.Second,
	})
	if err := hx.Start(); err != nil {
		return ShardScalingResult{}, err
	}
	defer func() { _ = hx.Shutdown() }()
	if !waitUntil(time.Now().Add(10*time.Second), func() bool {
		return hx.ConnectedWorkers() >= scalingManagers*scalingMgrWorkers
	}) {
		return ShardScalingResult{}, fmt.Errorf("shard scaling: %d/%d workers connected",
			hx.ConnectedWorkers(), scalingManagers*scalingMgrWorkers)
	}

	perSubmitter := cfg.Tasks / scalingSubmitters
	total := perSubmitter * scalingSubmitters
	futs := make([][]*future.Future, scalingSubmitters)
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < scalingSubmitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			base := int64(s * perSubmitter)
			out := make([]*future.Future, 0, perSubmitter)
			for off := 0; off < perSubmitter; off += scalingBatch {
				n := scalingBatch
				if off+n > perSubmitter {
					n = perSubmitter - off
				}
				batch := make([]serialize.TaskMsg, n)
				for i := range batch {
					id := base + int64(off+i)
					batch[i] = serialize.TaskMsg{ID: id, App: "noop", Args: []any{int(id)}}
				}
				out = append(out, hx.SubmitBatch(batch)...)
			}
			futs[s] = out
		}(s)
	}
	wg.Wait()
	for _, fs := range futs {
		if err := future.Wait(fs...); err != nil {
			return ShardScalingResult{}, fmt.Errorf("shard scaling (%d shards): %w", cfg.Shards, err)
		}
	}
	elapsed := time.Since(start)
	return ShardScalingResult{
		Shards:      cfg.Shards,
		Tasks:       total,
		Elapsed:     elapsed,
		TasksPerSec: float64(total) / elapsed.Seconds(),
	}, nil
}
