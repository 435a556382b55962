package workload

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dfk"
	"repro/internal/executor"
	"repro/internal/executor/threadpool"
	"repro/internal/future"
	"repro/internal/monitor"
	"repro/internal/serialize"
)

// NoisyConfig shapes one noisy-neighbor run: a burst ("heavy") tenant floods
// the pool while a small ("light") tenant submits its own modest workload,
// and the run measures what the light tenant observes. The three arms of the
// scenario differ only in knobs:
//
//   - pure fair queuing: HeavyQuota 0 — DRR weights alone govern; completion
//     throughput splits HeavyWeight:LightWeight, and the light tenant's
//     latency dilates by at most (HeavyWeight+LightWeight)/LightWeight,
//     independent of how large the burst is.
//   - bounded admission: HeavyQuota > 0 — the burst tenant's live tasks are
//     capped, so the light tenant's latency stays within a small factor of
//     its uncontended value even under a 10k burst.
//   - no tenancy: Tenanted false — the pre-tenant FIFO baseline: both
//     workloads share the default tenant, and the light tenant arrives behind
//     the submitted burst — behind what of it the DFK's ready-task window let
//     queue, so its wait no longer grows with the burst.
type NoisyConfig struct {
	// Workers sizes the thread pool (default 8).
	Workers int
	// QueueDepth bounds the pool's input queue (default 8). Shallow on
	// purpose: backlog must wait in the DFK's tenant-fair lanes, not in the
	// executor's FIFO channel, for fairness to shape latency.
	QueueDepth int
	// TaskDuration is each task's sleep (default 5ms).
	TaskDuration time.Duration
	// HeavyTasks is the burst size (default 10000); LightTasks the light
	// tenant's workload (default 300).
	HeavyTasks, LightTasks int
	// HeavyWeight:LightWeight is the DRR weight ratio (default 10:1).
	HeavyWeight, LightWeight int
	// HeavyQuota caps the burst tenant's live tasks (0 = no quota; the DFK's
	// ready-task window still bounds what the burst has queued).
	HeavyQuota int
	// Tenanted false runs both workloads as the default tenant — the
	// pre-tenancy contrast arm.
	Tenanted bool
}

// parkSink closes parked at the first "admitted" tenant event. A DFK emits one
// when a submission that parked at its tenant's window or quota resumes, so
// it marks the end of the first park, not its start.
type parkSink struct {
	once   sync.Once
	parked chan struct{}
}

func (s *parkSink) Emit(ev monitor.Event) {
	if ev.Kind == monitor.KindTenant && ev.Detail == "admitted" {
		s.once.Do(func() { close(s.parked) })
	}
}

func (s *parkSink) Close() error { return nil }

func (c *NoisyConfig) normalize() {
	setDefault(&c.Workers, 8)
	setDefault(&c.QueueDepth, 8)
	setDefault(&c.TaskDuration, 5*time.Millisecond)
	setDefault(&c.HeavyTasks, 10000)
	setDefault(&c.LightTasks, 300)
	setDefault(&c.HeavyWeight, 10)
	setDefault(&c.LightWeight, 1)
}

// NoisyResult reports what the light tenant observed.
type NoisyResult struct {
	// UncontendedP95 is the light tenant's p95 submit-to-start latency with
	// the pool to itself; ContendedP95 the same measure while the heavy
	// burst runs; LatencyRatio their quotient.
	UncontendedP95, ContendedP95 time.Duration
	LatencyRatio                 float64
	// HeavyCompleted counts burst-tenant completions inside the light
	// tenant's contended window; ShareRatio is the observed completion-
	// throughput ratio heavy:light over that window.
	HeavyCompleted int
	LightCompleted int
	ShareRatio     float64
	Elapsed        time.Duration
}

// p95 returns the 95th-percentile of latencies (nanoseconds).
func p95(lat []int64) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	sorted := append([]int64(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := (len(sorted) * 95) / 100
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return time.Duration(sorted[idx])
}

// RunNoisy executes one noisy-neighbor scenario and reports the light
// tenant's latency and throughput share. The heavy burst is canceled once
// the light tenant finishes — the measurement window is the light tenant's
// lifetime, and draining the remaining burst would only slow the harness.
func RunNoisy(cfg NoisyConfig) (NoisyResult, error) {
	cfg.normalize()
	reg := serialize.NewRegistry()
	tp := threadpool.NewWithDepth("pool", cfg.Workers, cfg.QueueDepth, reg)
	parks := &parkSink{parked: make(chan struct{})}
	dcfg := dfk.Config{Registry: reg, Executors: []executor.Executor{tp}, Monitor: parks}
	if cfg.HeavyQuota > 0 && cfg.Tenanted {
		dcfg.TenantQuotas = map[string]int{"heavy": cfg.HeavyQuota}
		dcfg.OverloadPolicy = dfk.OverloadBlock
	}
	d, err := dfk.New(dcfg)
	if err != nil {
		return NoisyResult{}, err
	}
	defer d.Shutdown()

	// The app measures its own submit-to-start latency: the submit
	// timestamp rides as an argument, and the returned value is the
	// nanoseconds between submission and the app body starting.
	lat, err := d.PythonApp("noisy-lat", func(args []any, _ map[string]any) (any, error) {
		started := time.Now().UnixNano() - args[0].(int64)
		time.Sleep(time.Duration(args[1].(int)) * time.Microsecond)
		return started, nil
	})
	if err != nil {
		return NoisyResult{}, err
	}

	us := int(cfg.TaskDuration / time.Microsecond)
	submit := func(ctx context.Context, tenant string, weight int) *future.Future {
		args := []any{time.Now().UnixNano(), us}
		if !cfg.Tenanted {
			return lat.Submit(ctx, args)
		}
		return lat.Submit(ctx, args, dfk.WithTenant(tenant, weight))
	}
	collect := func(futs []*future.Future) ([]int64, error) {
		out := make([]int64, 0, len(futs))
		for _, f := range futs {
			v, err := f.Result()
			if err != nil {
				return nil, err
			}
			out = append(out, v.(int64))
		}
		return out, nil
	}

	ctx := context.Background()

	// Phase 1 — uncontended baseline: the light workload with the pool to
	// itself.
	base := make([]*future.Future, cfg.LightTasks)
	for i := range base {
		base[i] = submit(ctx, "light", cfg.LightWeight)
	}
	baseLat, err := collect(base)
	if err != nil {
		return NoisyResult{}, err
	}

	// Phase 2 — contended: the heavy tenant bursts, then the light tenant
	// runs the same workload. Heavy submission happens on its own goroutine
	// because bounded admission is allowed to park it (that *is* the
	// backpressure); its context is canceled once the light window closes.
	start := time.Now()
	hctx, cancelHeavy := context.WithCancel(ctx)
	defer cancelHeavy()
	var heavyDone atomic.Int64
	heavySubmitted := make(chan struct{})
	var submittedOnce sync.Once
	saturated := func() { submittedOnce.Do(func() { close(heavySubmitted) }) }
	// The light window opens once the burst is established: the whole burst
	// is submitted (it is a burst — the light tenant arrives behind all of
	// it, or all the window let through), or, in the tenanted arms, the burst
	// submitter's first park at admission ended: the heavy tenant had filled
	// its window and drained to half of it, and from then on the submitter
	// keeps that backlog standing while the light tenant runs — shares are
	// only measurable against one. The quota arm marks the cap being reached,
	// before it parks.
	parked := parks.parked
	if !cfg.Tenanted {
		parked = nil
	}
	markAt := cfg.HeavyTasks - 1
	if cfg.Tenanted && cfg.HeavyQuota > 0 && cfg.HeavyQuota < markAt {
		markAt = cfg.HeavyQuota
	}
	go func() {
		defer saturated() // tiny bursts and canceled bursts unblock too
		for i := 0; i < cfg.HeavyTasks && hctx.Err() == nil; i++ {
			f := submit(hctx, "heavy", cfg.HeavyWeight)
			f.AddDoneCallback(func(df *future.Future) {
				if df.Err() == nil {
					heavyDone.Add(1)
				}
			})
			if i >= markAt {
				saturated()
			}
		}
	}()
	select {
	case <-heavySubmitted:
	case <-parked:
	case <-time.After(30 * time.Second):
		return NoisyResult{}, fmt.Errorf("workload: heavy burst failed to start")
	}

	heavyAtOpen := heavyDone.Load()
	light := make([]*future.Future, cfg.LightTasks)
	for i := range light {
		light[i] = submit(ctx, "light", cfg.LightWeight)
	}
	lightLat, err := collect(light)
	if err != nil {
		return NoisyResult{}, err
	}
	heavyInWindow := int(heavyDone.Load() - heavyAtOpen)
	cancelHeavy()

	res := NoisyResult{
		UncontendedP95: p95(baseLat),
		ContendedP95:   p95(lightLat),
		HeavyCompleted: heavyInWindow,
		LightCompleted: cfg.LightTasks,
		Elapsed:        time.Since(start),
	}
	if res.UncontendedP95 > 0 {
		res.LatencyRatio = float64(res.ContendedP95) / float64(res.UncontendedP95)
	}
	if cfg.LightTasks > 0 {
		res.ShareRatio = float64(heavyInWindow) / float64(cfg.LightTasks)
	}
	return res, nil
}
