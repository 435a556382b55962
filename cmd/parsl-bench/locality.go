package main

import (
	"fmt"

	"repro/internal/workload"
)

// runLocality drives the data-aware scheduling evaluation: a workflow runs
// once cold, then a second process replays it warm against the cold run's
// memo checkpoint and staging site, and the locality policy routes repeat
// digests to their holders. The headline numbers —
// warm re-executions and warm bytes moved — must both be zero, and the warm
// hit rate 1: RunLocality reports anything else as a violation.
func runLocality(o options) error {
	res, err := workload.RunLocality(workload.LocalityConfig{Seed: 7, Tasks: o.tasks})
	if err != nil {
		return err
	}
	fmt.Printf("locality: %d inputs, cold run + warm cross-process replay + digest routing\n\n", res.Tasks)

	fmt.Printf("%-6s %-12s %-10s %-14s %s\n", "run", "executions", "fetches", "bytes_moved", "hit_rate")
	fmt.Printf("%-6s %-12d %-10d %-14d %s\n", "cold", res.ColdExecutions, res.ColdFetches, res.ColdBytesFetched, "-")
	fmt.Printf("%-6s %-12d %-10d %-14d %.3f\n", "warm", res.WarmExecutions, res.WarmFetches, res.WarmBytesMoved, res.WarmHitRate)
	fmt.Printf("\nrouting: %d locality hits / %d misses; %d repeats on their digest holder, %d elsewhere\n",
		res.RouteHits, res.RouteMisses, res.RoutedToHolder, res.RoutedElsewhere)
	fmt.Printf("stale advert after shard kill: cold rerun ok=%v\n", res.StaleRerunOK)
	for _, v := range res.Violations {
		fmt.Printf("    VIOLATION: %s\n", v)
	}

	if len(res.Violations) > 0 {
		return fmt.Errorf("%d locality invariant violations", len(res.Violations))
	}
	fmt.Printf("\nwarm replay moved 0 bytes and re-executed 0 tasks; every repeat ran on its digest holder\n")
	return nil
}
