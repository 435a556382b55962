package workload

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/dfk"
	"repro/internal/executor"
	"repro/internal/executor/htex"
	"repro/internal/future"
	"repro/internal/provider"
	"repro/internal/serialize"
	"repro/internal/simnet"
	"repro/internal/strategy"
)

// ElasticityConfig parameterizes the Fig. 6 experiment. The paper ran the
// Fig. 5 workflow on Midway with and without elasticity; here one paper
// second is scaled to TimeScale of wall time so the experiment runs in
// seconds instead of minutes.
type ElasticityConfig struct {
	// TimeScale is the wall-clock length of one paper second (default 10 ms).
	TimeScale time.Duration
	// Elastic enables the scaling strategy; false is the control arm.
	Elastic bool
	// Parallelism is the Simple-strategy knob (§4.4); default 1.
	Parallelism float64
}

func (c *ElasticityConfig) normalize() {
	setDefault(&c.TimeScale, 10*time.Millisecond)
	setDefault(&c.Parallelism, 1)
}

// The paper scaled in blocks: 5 workers/block × 4 blocks covers the 20-wide
// stages.
const (
	fig6WorkersPerBlock = 5
	fig6MaxBlocks       = 4 // bounds scale-out (20 workers)
	fig6QueueDelay      = 3 // LRM queue latency, in paper seconds
)

// ElasticityResult reports the Fig. 6 metrics, normalized back to paper
// seconds.
type ElasticityResult struct {
	// MakespanSeconds is workflow completion time in paper seconds
	// (paper: 301 s fixed, 331 s elastic).
	MakespanSeconds float64
	// Utilization is task-seconds / worker-seconds (paper: 68.15% fixed,
	// 84.28% elastic).
	Utilization float64
	// WorkerSeconds and TaskSeconds are the raw integrals.
	WorkerSeconds float64
	TaskSeconds   float64
	// PeakWorkers and MinWorkers trace the elasticity behaviour.
	PeakWorkers int
	MinWorkers  int
}

// RunElasticity executes the Fig. 5 workflow and measures utilization and
// makespan, reproducing the Fig. 6 experiment.
func RunElasticity(cfg ElasticityConfig) (ElasticityResult, error) {
	cfg.normalize()
	stages := Fig5Workflow(cfg.TimeScale)

	// A Midway-like simulated cluster: one worker per node, block = 5 nodes.
	cl, err := cluster.New(cluster.Config{
		Name:         "midway",
		Nodes:        fig6WorkersPerBlock * fig6MaxBlocks,
		CoresPerNode: 1,
		QueueDelay:   fig6QueueDelay * cfg.TimeScale,
	})
	if err != nil {
		return ElasticityResult{}, err
	}
	defer cl.Close()

	reg := serialize.NewRegistry()
	prov := provider.NewSlurm(cl, provider.Config{NodesPerBlock: fig6WorkersPerBlock})

	initBlocks := fig6MaxBlocks // fixed arm: full allocation for the run
	minBlocks := fig6MaxBlocks
	if cfg.Elastic {
		initBlocks = 1
		minBlocks = 1
	}
	ex := htex.New(htex.Config{
		Label:      "htex",
		Transport:  simnet.NewNetwork(0),
		Registry:   reg,
		Provider:   prov,
		InitBlocks: initBlocks,
		Manager:    htex.ManagerConfig{Workers: 1, HeartbeatPeriod: 50 * time.Millisecond},
		Interchange: htex.InterchangeConfig{
			Seed:               1,
			HeartbeatPeriod:    50 * time.Millisecond,
			HeartbeatThreshold: 5 * time.Second,
		},
	})

	d, err := dfk.New(dfk.Config{Registry: reg, Executors: []executor.Executor{ex}, Seed: 1})
	if err != nil {
		return ElasticityResult{}, err
	}
	defer d.Shutdown()

	sleepApp, err := d.PythonApp("fig5-sleep", func(args []any, _ map[string]any) (any, error) {
		time.Sleep(time.Duration(args[0].(int)) * time.Millisecond)
		return nil, nil
	})
	if err != nil {
		return ElasticityResult{}, err
	}

	var ctrl *strategy.Controller
	if cfg.Elastic {
		ctrl = strategy.NewController(ex, strategy.Simple{Parallelism: cfg.Parallelism},
			strategy.ControllerConfig{
				Interval:        cfg.TimeScale, // one decision per paper second
				WorkersPerBlock: fig6WorkersPerBlock,
				MinBlocks:       minBlocks,
				MaxBlocks:       fig6MaxBlocks,
				ScaleInHoldoff:  3 * cfg.TimeScale,
			})
		ctrl.Start()
		defer ctrl.Stop()
	}

	// Wait for the initial allocation to come up before starting the clock,
	// as the paper's runs did (workers deployed, then tasks submitted).
	if !waitUntil(time.Now().Add(30*time.Second), func() bool {
		return ex.ConnectedWorkers() >= initBlocks*fig6WorkersPerBlock
	}) {
		return ElasticityResult{}, fmt.Errorf("workload: initial blocks never started")
	}

	// Utilization sampler: integrate connected workers over the run. Each
	// sample weighs the time since the last one, not the ticker's period: a
	// ticker drops the ticks a late receiver misses, so counting periods
	// would undercount worker-seconds and overstate utilization.
	var (
		workerInt float64 // worker-seconds in paper units
		peak      int
		minW      = 1 << 30
		last      = time.Now()
	)
	stopSampler := startSampler(cfg.TimeScale/2, func() {
		now := time.Now()
		w := ex.ConnectedWorkers()
		workerInt += float64(w) * (float64(now.Sub(last)) / float64(cfg.TimeScale))
		last = now
		peak, minW = max(peak, w), min(minW, w)
	})

	start := time.Now()
	var prev []*future.Future
	for _, st := range stages {
		ms := int(st.Duration / time.Millisecond)
		futs := make([]*future.Future, st.Tasks)
		for i := 0; i < st.Tasks; i++ {
			args := []any{ms}
			if len(prev) > 0 {
				// Stage barrier: every task consumes all prior futures.
				args = append(args, anySlice(prev))
			}
			futs[i] = sleepApp.Submit(context.Background(), args)
		}
		prev = futs
	}
	err = future.Wait(prev...)
	makespan := time.Since(start)
	stopSampler()
	if err != nil {
		return ElasticityResult{}, err
	}

	taskSeconds := float64(TaskSeconds(stages)) / float64(cfg.TimeScale)
	util := 0.0
	if workerInt > 0 {
		util = taskSeconds / workerInt
	}
	if util > 1 {
		util = 1
	}
	return ElasticityResult{
		MakespanSeconds: float64(makespan) / float64(cfg.TimeScale),
		Utilization:     util,
		WorkerSeconds:   workerInt,
		TaskSeconds:     taskSeconds,
		PeakWorkers:     peak,
		MinWorkers:      minW,
	}, nil
}

func anySlice(futs []*future.Future) []any {
	out := make([]any, len(futs))
	for i, f := range futs {
		out[i] = f
	}
	return out
}
