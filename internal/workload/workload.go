// Package workload provides the synthetic task generators used throughout
// the evaluation (no-op and sleep tasks of §5.1–5.3), the four-stage
// map-reduce workflow of Fig. 5, and the recovery scenarios parsl-bench runs.
// The bench harness and the examples both build on these generators.
package workload

import (
	"fmt"
	"time"

	"repro/internal/serialize"
)

// RegisterBenchApps installs the evaluation apps ("noop", "sleep") into a
// registry. Sleep durations arrive in milliseconds, as in the paper's
// 0/10/100/1000 ms task classes.
func RegisterBenchApps(reg *serialize.Registry) error {
	if err := reg.Register("noop", func([]any, map[string]any) (any, error) {
		return nil, nil // a Python function that exits immediately (§5.2)
	}); err != nil {
		return err
	}
	return reg.Register("sleep", func(args []any, _ map[string]any) (any, error) {
		ms, ok := args[0].(int)
		if !ok {
			return nil, fmt.Errorf("workload: sleep wants int ms, got %T", args[0])
		}
		time.Sleep(time.Duration(ms) * time.Millisecond)
		return ms, nil
	})
}

// Stage describes one stage of the Fig. 5 elasticity workflow.
type Stage struct {
	Tasks    int
	Duration time.Duration // per-task duration in *paper seconds* × scale
}

// Fig5Workflow returns the four-stage workflow of Fig. 5 — two wide map
// stages of 20×100 s separated by single 50 s reduce tasks — with every
// paper second scaled by timeScale (tests use ~10–20 ms per paper second).
func Fig5Workflow(timeScale time.Duration) []Stage {
	return []Stage{
		{Tasks: 20, Duration: 100 * timeScale},
		{Tasks: 1, Duration: 50 * timeScale},
		{Tasks: 20, Duration: 100 * timeScale},
		{Tasks: 1, Duration: 50 * timeScale},
	}
}

// TaskSeconds returns the total task work in the workflow, in units of
// timeScale (i.e., paper seconds when divided back).
func TaskSeconds(stages []Stage) time.Duration {
	var total time.Duration
	for _, s := range stages {
		total += time.Duration(s.Tasks) * s.Duration
	}
	return total
}

// CosmologyBundles groups n tasks into bundles of size b, modeling the LSST
// simulation's rebalancing of catalog tasks into node-sized chunks (§2.1:
// "group (and rebalance) tasks into appropriate sized bundles ... e.g., 64
// tasks for a 64-core processor").
func CosmologyBundles(n, b int) [][]int {
	if b <= 0 {
		b = 1
	}
	var bundles [][]int
	for start := 0; start < n; start += b {
		end := start + b
		if end > n {
			end = n
		}
		bundle := make([]int, 0, end-start)
		for i := start; i < end; i++ {
			bundle = append(bundle, i)
		}
		bundles = append(bundles, bundle)
	}
	return bundles
}
