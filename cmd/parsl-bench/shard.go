package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/workload"
)

// runShard drives the sharded-control-plane evaluation:
//
//  1. Failover matrix — per seed, one interchange shard of a 4-shard pool
//     is killed through the chaos plane mid-workload; every seed must
//     uphold the blast-radius contract (only the victim's outstanding set
//     re-executes, survivors untouched, every task exactly-once).
//  2. Scaling arms — the same total manager capacity behind 1 shard vs N
//     shards, reporting client-observed throughput and their ratio.
//
// -shard-bar > 0 requires scale ≥ bar (the CI shard job passes 1.8 for N=4). The
// bar needs real cores — the routers must actually run in parallel — so it
// is skipped (loudly) below 4 CPUs rather than failing on serialized
// hardware where both arms share one core.
func runShard(o options) error {
	const shards = 4
	seeds, bar := o.seeds(), o.shardBar
	fmt.Printf("failover: one of %d shards killed mid-workload per seed; seeds %v\n\n", shards, seeds)
	fmt.Printf("%-8s %-6s %-10s %-6s %-11s %-9s %-8s %-10s %s\n",
		"verdict", "seed", "submitted", "done", "victimheld", "retried", "shards", "health", "elapsed")
	type failRow struct {
		Seed int64 `json:"seed"`
		workload.ShardFailoverResult
	}
	failRows := make([]failRow, 0, len(seeds))
	failed, err := runMatrix("seed", seeds, func(seed int64) (string, []string, error) {
		res, err := workload.RunShardFailover(workload.ShardFailoverConfig{
			Seed: seed, Shards: shards, Tasks: o.tasks,
		})
		if err != nil {
			return "", nil, err
		}
		res.Events = nil // reproducible from the seed; keep the artifact small
		failRows = append(failRows, failRow{Seed: seed, ShardFailoverResult: res})
		return fmt.Sprintf("%-6d %-10d %-6d %-11d %-9d %d/%-6d %-10s %v",
			seed, res.Submitted, res.Done, res.VictimHeld, res.Retried,
			res.ShardsAlive, res.ShardsTotal, res.Health, res.Elapsed.Round(time.Millisecond)), res.Violations, nil
	})
	if err != nil {
		return err
	}

	fmt.Printf("\nscaling: equal manager capacity behind 1 vs %d shards\n\n", shards)
	type scaleRow struct {
		Shards      int     `json:"shards"`
		Tasks       int     `json:"tasks"`
		ElapsedMs   float64 `json:"elapsed_ms"`
		TasksPerSec float64 `json:"tasks_per_sec"`
	}
	scaleRows := make([]scaleRow, 0, 2)
	for _, s := range []int{1, shards} {
		res, err := workload.RunShardScaling(workload.ShardScalingConfig{Seed: 1, Shards: s})
		if err != nil {
			return err
		}
		scaleRows = append(scaleRows, scaleRow{
			Shards: res.Shards, Tasks: res.Tasks,
			ElapsedMs:   float64(res.Elapsed.Microseconds()) / 1e3,
			TasksPerSec: res.TasksPerSec,
		})
		fmt.Printf("  %d shard(s): %8.0f tasks/s  (%d tasks in %v)\n",
			res.Shards, res.TasksPerSec, res.Tasks, res.Elapsed.Round(time.Millisecond))
	}
	scale := scaleRows[1].TasksPerSec / scaleRows[0].TasksPerSec
	cores := runtime.NumCPU()
	fmt.Printf("\n  throughput scaling %d→%d shards: %.2fx on %d cores\n", 1, shards, scale, cores)
	barApplied := bar > 0 && cores >= 4
	if bar > 0 && !barApplied {
		fmt.Printf("  bar %.2fx SKIPPED: %d cores cannot run the shard routers in parallel\n", bar, cores)
	}

	if err := writeJSON(o.jsonPath, struct {
		Failover   []failRow  `json:"failover"`
		Scaling    []scaleRow `json:"scaling"`
		Scale      float64    `json:"scale"`
		Bar        float64    `json:"bar,omitempty"`
		BarApplied bool       `json:"bar_applied"`
		Cores      int        `json:"cores"`
	}{failRows, scaleRows, scale, bar, barApplied, cores}); err != nil {
		return err
	}

	if failed > 0 {
		return fmt.Errorf("%d of %d seeds violated shard-failover invariants", failed, len(seeds))
	}
	if barApplied && scale < bar {
		return fmt.Errorf("throughput scaling %.2fx below the %.2fx bar (%d shards, %d cores)",
			scale, bar, shards, cores)
	}
	fmt.Printf("\nall %d seeds upheld shard failover: one shard killed, only its outstanding\nset re-executed, survivors untouched, every task exactly-once\n", len(seeds))
	return nil
}
