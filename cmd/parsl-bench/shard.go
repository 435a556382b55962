package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/workload"
)

// The horizontal-scaling bar: at equal manager capacity, 4 shards must beat
// one broker by this factor. The bar needs real cores — the routers must
// actually run in parallel — so below shardScaleMinCores it is skipped rather
// than failed on hardware where both arms share a core.
const (
	shardScaleBar      = 1.8
	shardScaleMinCores = 4
)

// checkShardScale holds the 1→4-shard throughput ratio to the bar; skipped
// reports a machine too small for the ratio to mean anything.
func checkShardScale(scale float64, cores int) (skipped bool, err error) {
	if cores < shardScaleMinCores {
		return true, nil
	}
	if scale < shardScaleBar {
		return false, fmt.Errorf("throughput scaling %.2fx below the %.2fx bar (%d cores)", scale, shardScaleBar, cores)
	}
	return false, nil
}

// runShard drives the sharded-control-plane evaluation:
//
//  1. Failover matrix — per seed, one interchange shard of a 4-shard pool
//     is killed through the chaos plane mid-workload; every seed must
//     uphold the blast-radius contract (only the victim's outstanding set
//     re-executes, survivors untouched, every task exactly-once).
//  2. Scaling arms — the same total manager capacity behind 1 shard vs 4
//     shards, reporting client-observed throughput and holding their ratio
//     to checkShardScale's bar.
func runShard(o options) error {
	const shards = 4
	seeds := o.seeds()
	fmt.Printf("failover: one of %d shards killed mid-workload per seed; seeds %v\n\n", shards, seeds)
	fmt.Printf("%-8s %-6s %-10s %-6s %-11s %-9s %-8s %-10s %s\n",
		"verdict", "seed", "submitted", "done", "victimheld", "retried", "shards", "health", "elapsed")
	failed, err := runMatrix("seed", seeds, func(seed int64) (string, []string, error) {
		res, err := workload.RunShardFailover(workload.ShardFailoverConfig{
			Seed: seed, Shards: shards, Tasks: o.tasks,
		})
		if err != nil {
			return "", nil, err
		}
		return fmt.Sprintf("%-6d %-10d %-6d %-11d %-9d %d/%-6d %-10s %v",
			seed, res.Submitted, res.Done, res.VictimHeld, res.Retried,
			res.ShardsAlive, res.ShardsTotal, res.Health, res.Elapsed.Round(time.Millisecond)), res.Violations, nil
	})
	if err != nil {
		return err
	}

	fmt.Printf("\nscaling: equal manager capacity behind 1 vs %d shards\n\n", shards)
	var rate [2]float64
	for i, s := range []int{1, shards} {
		res, err := workload.RunShardScaling(workload.ShardScalingConfig{Seed: 1, Shards: s})
		if err != nil {
			return err
		}
		rate[i] = res.TasksPerSec
		fmt.Printf("  %d shard(s): %8.0f tasks/s  (%d tasks in %v)\n",
			res.Shards, res.TasksPerSec, res.Tasks, res.Elapsed.Round(time.Millisecond))
	}
	scale := rate[1] / rate[0]
	cores := runtime.NumCPU()
	fmt.Printf("\n  throughput scaling %d→%d shards: %.2fx on %d cores\n", 1, shards, scale, cores)
	skipped, barErr := checkShardScale(scale, cores)
	if skipped {
		fmt.Printf("  bar %.2fx SKIPPED: %d cores cannot run the shard routers in parallel\n", shardScaleBar, cores)
	}

	if failed > 0 {
		return fmt.Errorf("%d of %d seeds violated shard-failover invariants", failed, len(seeds))
	}
	if barErr != nil {
		return barErr
	}
	fmt.Printf("\nall %d seeds upheld shard failover: one shard killed, only its outstanding\nset re-executed, survivors untouched, every task exactly-once\n", len(seeds))
	return nil
}
