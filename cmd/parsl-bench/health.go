package main

import (
	"fmt"
	"time"

	"repro/internal/workload"
)

// runHealth drives the self-healing scenario across a seed matrix: repeated
// manager kills plus one poison task pinned to the HTEX pool. Each seed must
// uphold every retry-plane invariant — goodput recovers through breaker
// failover, the poison task quarantines after exactly N distinct manager
// kills, and no task is lost or double-delivered. A failing seed printed
// here is a complete reproduction recipe:
//
//	parsl-bench -seed <s> health
//	go test ./internal/workload/ -run TestHealthScenarioSeeds -race
func runHealth(o options) error {
	seeds := o.seeds()
	fmt.Printf("bulk tasks + 1 poison task per seed; seeds %v\n\n", seeds)
	fmt.Printf("%-8s %-6s %-10s %-6s %-6s %-7s %-9s %-9s %-12s %s\n",
		"verdict", "seed", "submitted", "done", "kills", "poison", "backoffs", "retried", "maxlaunches", "elapsed")
	failed, err := runMatrix("seed", seeds, func(seed int64) (string, []string, error) {
		res, err := workload.RunHealth(workload.HealthConfig{Seed: seed, Tasks: o.tasks})
		if err != nil {
			return "", nil, err
		}
		return fmt.Sprintf("%-6d %-10d %-6d %-6d %-7d %-9d %-9d %-12d %v\n    breaker: %v",
			seed, res.Submitted, res.Done, res.Kills, len(res.PoisonKills),
			res.Backoffs, res.Retried, res.MaxLaunches, res.Elapsed.Round(time.Millisecond),
			res.Transitions), res.Violations, nil
	})
	if err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d seeds violated self-healing invariants", failed, len(seeds))
	}
	fmt.Printf("\nall %d seeds upheld self-healing: poison quarantined after its kill bar,\nbulk goodput recovered through breaker failover, no task lost or double-delivered\n", len(seeds))
	return nil
}
