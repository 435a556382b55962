package workload

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/data"
	"repro/internal/dfk"
	"repro/internal/executor"
	"repro/internal/future"
	"repro/internal/sched"
	"repro/internal/serialize"
)

// This file holds the data-aware scheduling scenario: the content-addressed
// planes (memo checkpoint, staged-file dedup, the interchanges' warm-digest
// records, locality routing) driven end to end, with the cold-vs-warm deltas
// the CI bar pins.
//
//   - Phase 1/2 (cold/warm): a workflow runs once cold — staging every input
//     and executing every task — then a second workflow process (a fresh DFK
//     with an empty memo table) replays it against the same memo checkpoint
//     file and staging site. The warm replay must move ~zero bytes and
//     re-execute ~zero tasks.
//   - Phase 3 (routing): two HTEX pools execute a distinct input each; the
//     locality policy must route the repeat of every input to the pool whose
//     managers hold its digest.
//   - Phase 4 (stale holding): the shard holding one warm digest is killed;
//     the repeat of that input must fall back to a cold run and complete —
//     a stale holding is a performance miss, never an error.

// LocalityConfig shapes one locality scenario run.
type LocalityConfig struct {
	// Seed fixes manager selection and DFK jitter.
	Seed int64
	// Tasks is the distinct-input count per phase (default 16).
	Tasks int
}

// The deployment every locality run uses.
const (
	localityPayloadBytes = 4096 // size of each staged input file
	localityManagers     = 4    // managers per pool
	localityMgrWorkers   = 1    // worker goroutines per manager
	localityWatchdog     = 90 * time.Second
)

func (c *LocalityConfig) normalize() {
	setDefault(&c.Tasks, 16)
}

// LocalityResult reports one locality scenario run.
type LocalityResult struct {
	Tasks int

	// Cold/warm replay deltas (phases 1–2). The warm numbers are the bar:
	// executions and fetched bytes must both be ~0 on the replay.
	ColdExecutions, WarmExecutions   int
	ColdFetches, WarmFetches         int64
	ColdBytesFetched, WarmBytesMoved int64
	WarmHitRate                      float64 // warm memo hits per task
	StageStats                       data.StageStats

	// Locality routing (phase 3): policy-level hit/miss counters and how
	// many repeats landed on the pool that held their digest.
	RouteHits, RouteMisses          int64
	RoutedToHolder, RoutedElsewhere int

	// Stale holding (phase 4).
	StaleRerunOK bool

	Violations []string
	Elapsed    time.Duration
}

// localityInput derives input i's content digest exactly as the submit path
// does: the canonical encode-once payload bytes of the task's arguments.
func localityInput(i int) (string, error) {
	p, err := serialize.EncodeArgs([]any{i}, nil)
	if err != nil {
		return "", err
	}
	d := p.ArgsHash()
	p.Release()
	return d, nil
}

// RunLocality executes the data-aware scheduling scenario.
func RunLocality(cfg LocalityConfig) (res LocalityResult, _ error) {
	cfg.normalize()
	start := time.Now()
	deadline := start.Add(localityWatchdog)
	res.Tasks = cfg.Tasks
	defer func() { res.Elapsed = time.Since(start) }()
	vs := (*violations)(&res.Violations)

	// ---- Phases 1–2: cold run, then a warm replay from a second process ----

	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body := make([]byte, localityPayloadBytes)
		for j := range body {
			body[j] = byte(len(r.URL.Path) + j)
		}
		_, _ = w.Write(body)
	}))
	defer srv.Close()
	stageDir, err := os.MkdirTemp("", "locality-stage-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(stageDir)
	site, err := data.NewManager(stageDir)
	if err != nil {
		return res, err
	}

	// The cold DFK's Shutdown syncs and closes the checkpoint before the
	// warm DFK opens it, as a restarted process would find it.
	checkpoint := filepath.Join(stageDir, "checkpoint")
	var executions atomic.Int32
	analyze := func(args []any, _ map[string]any) (any, error) {
		executions.Add(1)
		return args[0].(int) * 2, nil
	}

	// runReplay runs the workflow in a fresh DFK and returns its memo hits.
	runReplay := func(procLabel string) (memoHits int64, _ error) {
		fx, err := newFixture(0,
			poolSpec{Label: "htex-" + procLabel, Seed: cfg.Seed, Shards: 1,
				Managers: localityManagers, Workers: localityMgrWorkers, Locality: true},
			dfk.Config{Memoize: true, Checkpoint: checkpoint, SchedulerPolicy: "locality"})
		if err != nil {
			return 0, err
		}
		defer func() { _ = fx.d.Shutdown() }()
		app, err := fx.app("analyze", analyze)
		if err != nil {
			return 0, err
		}
		// Stage every input through the shared site, then run the workflow.
		for i := 0; i < cfg.Tasks; i++ {
			f := data.MustFile(fmt.Sprintf("%s/input-%d.bin", srv.URL, i))
			if _, err := site.StageIn(f); err != nil {
				return 0, fmt.Errorf("%s: stage input %d: %w", procLabel, i, err)
			}
		}
		futs := make([]*future.Future, 0, cfg.Tasks)
		for i := 0; i < cfg.Tasks; i++ {
			futs = append(futs, app.Call(i))
		}
		if n := awaitAll(futs, deadline); n > 0 {
			fx.teardownWedged(vs)
			return 0, fmt.Errorf("%s: watchdog %v expired with %d/%d tasks unsettled", procLabel, localityWatchdog, n, len(futs))
		}
		if checkValues(vs, futs, nil, func(i int) int { return i * 2 }) > 0 {
			return 0, fmt.Errorf("%s replay lost tasks: %v", procLabel, res.Violations)
		}
		hits, _ := fx.d.Memoizer().Stats()
		return hits, nil
	}

	if _, err := runReplay("cold"); err != nil {
		return res, err
	}
	res.ColdExecutions = int(executions.Load())
	coldStage := site.Stats()
	res.ColdFetches = coldStage.Fetches
	res.ColdBytesFetched = coldStage.FetchedBytes
	if res.ColdExecutions != cfg.Tasks {
		vs.add("cold run executed %d of %d tasks", res.ColdExecutions, cfg.Tasks)
	}

	warmHits, err := runReplay("warm")
	if err != nil {
		return res, err
	}
	res.WarmExecutions = int(executions.Load()) - res.ColdExecutions
	warmStage := site.Stats()
	res.WarmFetches = warmStage.Fetches - coldStage.Fetches
	res.WarmBytesMoved = warmStage.FetchedBytes - coldStage.FetchedBytes
	res.StageStats = warmStage
	res.WarmHitRate = float64(warmHits) / float64(cfg.Tasks)
	if res.WarmExecutions != 0 {
		vs.add("warm replay re-executed %d tasks, want 0", res.WarmExecutions)
	}
	if res.WarmFetches != 0 || res.WarmBytesMoved != 0 {
		vs.add("warm replay moved %d bytes in %d fetches, want 0", res.WarmBytesMoved, res.WarmFetches)
	}
	if res.WarmHitRate < 1 {
		vs.add("warm hit rate %.3f, want 1.0", res.WarmHitRate)
	}

	// ---- Phase 3: locality routing across two pools ----

	type runRecord struct {
		mu   sync.Mutex
		byIn map[int][]string
	}
	rec := &runRecord{byIn: make(map[int][]string)}
	recorder := func(label string) serialize.Fn {
		return func(args []any, _ map[string]any) (any, error) {
			i := args[0].(int)
			rec.mu.Lock()
			rec.byIn[i] = append(rec.byIn[i], label)
			rec.mu.Unlock()
			return i, nil
		}
	}
	alphaReg, betaReg := serialize.NewRegistry(), serialize.NewRegistry()
	if err := alphaReg.Register("route", recorder("alpha")); err != nil {
		return res, err
	}
	if err := betaReg.Register("route", recorder("beta")); err != nil {
		return res, err
	}
	pool := poolSpec{Label: "alpha", Seed: cfg.Seed, Shards: 2,
		Managers: localityManagers, Workers: localityMgrWorkers, Locality: true}
	alpha := newPool(alphaReg, pool)
	pool.Label, pool.Seed = "beta", cfg.Seed+1
	beta := newPool(betaReg, pool)
	loc := sched.NewLocality()
	routeDFK, err := dfk.New(dfk.Config{
		Registry:  serialize.NewRegistry(),
		Executors: []executor.Executor{alpha, beta},
		Seed:      cfg.Seed,
		Retries:   4,
		Scheduler: loc,
	})
	if err != nil {
		return res, err
	}
	defer func() { _ = routeDFK.Shutdown() }()
	route, err := routeDFK.PythonApp("route", func(args []any, _ map[string]any) (any, error) {
		return args[0], nil
	})
	if err != nil {
		return res, err
	}

	digests := make([]string, cfg.Tasks)
	for i := range digests {
		if digests[i], err = localityInput(i); err != nil {
			return res, err
		}
	}
	runRound := func() bool {
		futs := make([]*future.Future, 0, cfg.Tasks)
		for i := 0; i < cfg.Tasks; i++ {
			futs = append(futs, route.Call(i))
		}
		return checkValues(vs, futs, nil, func(i int) int { return i }) == 0
	}
	if !runRound() {
		return res, nil
	}
	// Every input ran exactly once on exactly one pool, whose interchange
	// recorded the digest before it relayed the result.
	for i, dg := range digests {
		if !alpha.HoldsDigest(dg) && !beta.HoldsDigest(dg) {
			vs.add("input %d's digest is held by neither pool once its result returned", i)
			return res, nil
		}
	}
	preHits, _ := loc.Stats()
	if !runRound() {
		return res, nil
	}
	res.RouteHits, res.RouteMisses = loc.Stats()
	if warmHits := res.RouteHits - preHits; warmHits != int64(cfg.Tasks) {
		vs.add("warm round scored %d locality hits, want %d", warmHits, cfg.Tasks)
	}
	rec.mu.Lock()
	for i := 0; i < cfg.Tasks; i++ {
		runs := rec.byIn[i]
		if len(runs) != 2 {
			vs.add("input %d ran %d times across the routing rounds, want 2", i, len(runs))
			continue
		}
		if runs[1] == runs[0] {
			res.RoutedToHolder++
		} else {
			res.RoutedElsewhere++
		}
	}
	rec.mu.Unlock()
	if res.RoutedElsewhere > 0 {
		vs.add("%d repeats ran away from their digest holder", res.RoutedElsewhere)
	}

	// ---- Phase 4: a stale holding degrades to a cold run ----

	// Kill the shard holding input 0's warm digest: the holding
	// disappears with it, so the next repeat must fall back, re-execute
	// cold somewhere with capacity, and complete without error.
	staleHolder := alpha
	if beta.HoldsDigest(digests[0]) {
		staleHolder = beta
	}
	killed := false
	for s := 0; s < staleHolder.ShardCount(); s++ {
		if staleHolder.Shard(s).HasDigest(digests[0]) {
			killed = staleHolder.KillShard(s)
			break
		}
	}
	if !killed {
		vs.add("stale phase: no shard held input 0's digest")
	} else {
		preRuns := len(rec.byIn[0])
		v, err := route.Call(0).Result()
		if err != nil {
			vs.add("stale rerun failed: %v", err)
		} else if v != 0 {
			vs.add("stale rerun = %v, want 0", v)
		} else {
			rec.mu.Lock()
			res.StaleRerunOK = len(rec.byIn[0]) == preRuns+1
			rec.mu.Unlock()
			if !res.StaleRerunOK {
				vs.add("stale rerun did not re-execute (the holding should be gone)")
			}
		}
	}

	return res, nil
}
