package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/workload"
)

// runChaos drives the reference multi-executor workload under the seeded
// default fault plan for each seed, printing the fired fault schedule and
// the invariant verdict. The same seed always replays the same schedule, so
// a failing seed printed here is a complete reproduction recipe:
//
//	parsl-bench -seed <n> chaos
//	CHAOS_SEEDS=<n> go test ./internal/workload/ -run TestChaosRecoverySeeds -race
func runChaos(o options) error {
	ckptDir, err := os.MkdirTemp("", "parsl-chaos")
	if err != nil {
		return err
	}
	defer os.RemoveAll(ckptDir)

	seeds := o.seeds()
	failed, err := runMatrix("seed", seeds, func(seed int64) (string, []string, error) {
		res, err := workload.RunChaos(workload.ChaosConfig{
			Seed:       seed,
			Tasks:      o.tasks,
			Checkpoint: filepath.Join(ckptDir, fmt.Sprintf("seed%d.ckpt", seed)),
		})
		if err != nil {
			return "", nil, err
		}
		var line strings.Builder
		fmt.Fprintf(&line, "seed %-8d submitted %4d  done %4d  memoized %3d  failed %2d  executions %4d  retried %3d  faults %3d  %v",
			seed, res.Submitted, res.Done, res.Memoized, res.Failed,
			res.Executions, res.Retried, len(res.Events), res.Elapsed.Round(1e6))
		if o.verbose || len(res.Violations) > 0 {
			for _, e := range res.Events {
				fmt.Fprintf(&line, "\n    fault: %s", e)
			}
		}
		return line.String(), res.Violations, nil
	})
	if err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d seeds violated recovery invariants", failed, len(seeds))
	}
	fmt.Printf("\nall %d seeds upheld every recovery invariant (no task lost, exactly-once results,\nretries within budget, broker drained, checkpoint consistent)\n", len(seeds))
	return nil
}
