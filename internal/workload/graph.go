package workload

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/dfk"
	"repro/internal/executor"
	"repro/internal/executor/threadpool"
	"repro/internal/future"
	"repro/internal/serialize"
)

// GraphConfig shapes the million-task DAG drain scenario: W independent
// dependency chains advanced with a lookahead window of L outstanding tasks
// each, so the live frontier is bounded by ~W×L records regardless of total
// DAG size. With record recycling this makes steady-state memory O(frontier)
// while the task count grows without bound — the property the scenario
// exists to measure.
type GraphConfig struct {
	// Nodes is the total task count across all chains (default 1_000_000).
	Nodes int
	// Chains is W, the number of independent chains (default 64).
	Chains int
	// Window is L, the per-chain lookahead: how many tasks of one chain may
	// be outstanding at once (default 128).
	Window int
	// Workers sizes the threadpool executor (default GOMAXPROCS).
	Workers int
}

// GraphResult reports the drain: throughput, memory high-water marks, and
// the recycling evidence (live vs recycled node counts).
type GraphResult struct {
	Nodes         int
	Edges         int
	Chains        int
	Window        int
	MakespanMs    float64
	TasksPerSec   float64
	PeakRSSBytes  int64
	LiveNodesMax  int64
	RecycledNodes int64
	AllocsPerTask float64
}

// RunGraph builds and drains the windowed-chain DAG, sampling the graph's
// live-node count throughout. Every non-root task depends on its chain
// predecessor's future, so the scenario exercises the full dependency
// pipeline — future propagation, encode-once payloads, dispatch lanes — not
// just independent submission.
func RunGraph(cfg GraphConfig) (*GraphResult, error) {
	setDefault(&cfg.Nodes, 1_000_000)
	setDefault(&cfg.Chains, 64)
	cfg.Chains = min(cfg.Chains, cfg.Nodes)
	setDefault(&cfg.Window, 128)
	setDefault(&cfg.Workers, runtime.GOMAXPROCS(0))

	reg := serialize.NewRegistry()
	d, err := dfk.New(dfk.Config{
		Registry:  reg,
		Executors: []executor.Executor{threadpool.New("graph", cfg.Workers, reg)},
		Seed:      7,
	})
	if err != nil {
		return nil, err
	}
	defer d.Shutdown()

	chain, err := d.PythonApp("graph-chain", func(args []any, _ map[string]any) (any, error) {
		return 1, nil
	})
	if err != nil {
		return nil, err
	}

	// Sample the live frontier while the drain runs. 1 ms resolution is
	// plenty: the frontier changes by at most a window per chain step.
	var liveMax int64
	stopSampler := startSampler(time.Millisecond, func() {
		liveMax = max(liveMax, int64(d.Graph().LiveNodes()))
	})

	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	// Distribute nodes over chains; the first nodes%chains chains get one
	// extra so every node is submitted exactly once.
	per := cfg.Nodes / cfg.Chains
	extra := cfg.Nodes % cfg.Chains
	start := time.Now()
	var chainWG sync.WaitGroup
	errc := make(chan error, cfg.Chains)
	for c := 0; c < cfg.Chains; c++ {
		n := per
		if c < extra {
			n++
		}
		if n == 0 {
			continue
		}
		chainWG.Add(1)
		go func(n int) {
			defer chainWG.Done()
			window := make([]*future.Future, cfg.Window)
			var prev *future.Future
			for i := 0; i < n; i++ {
				// Slide the window: block on the task L steps back before
				// submitting the next, bounding this chain's outstanding
				// frontier at L.
				if i >= cfg.Window {
					if _, err := window[i%cfg.Window].Result(); err != nil {
						errc <- err
						return
					}
				}
				if prev == nil {
					prev = chain.Call(0)
				} else {
					prev = chain.Call(prev)
				}
				window[i%cfg.Window] = prev
			}
			if _, err := prev.Result(); err != nil {
				errc <- err
			}
		}(n)
	}
	chainWG.Wait()
	d.WaitAll()
	makespan := time.Since(start)
	stopSampler()
	select {
	case err := <-errc:
		return nil, fmt.Errorf("workload: graph chain failed: %w", err)
	default:
	}

	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	return &GraphResult{
		Nodes:         cfg.Nodes,
		Edges:         cfg.Nodes - cfg.Chains,
		Chains:        cfg.Chains,
		Window:        cfg.Window,
		MakespanMs:    float64(makespan.Microseconds()) / 1000,
		TasksPerSec:   float64(cfg.Nodes) / makespan.Seconds(),
		PeakRSSBytes:  peakRSSBytes(),
		LiveNodesMax:  liveMax,
		RecycledNodes: d.Graph().RecycledNodes(),
		AllocsPerTask: float64(after.Mallocs-before.Mallocs) / float64(cfg.Nodes),
	}, nil
}

// peakRSSBytes reads the process's resident-set high-water mark (VmHWM)
// from /proc/self/status; 0 when unavailable (non-Linux).
func peakRSSBytes() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("VmHWM:")) {
			continue
		}
		fields := bytes.Fields(line[len("VmHWM:"):])
		if len(fields) < 1 {
			return 0
		}
		kb, err := strconv.ParseInt(string(fields[0]), 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}
