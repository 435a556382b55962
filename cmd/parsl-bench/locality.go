package main

import (
	"fmt"
	"time"

	"repro/internal/workload"
)

// runLocality drives the data-aware scheduling evaluation: a workflow runs
// once cold, then a second process replays it warm against the shared
// content-addressed result cache and staging site, and the locality policy
// routes repeat digests to their advertised holders. The headline numbers —
// warm re-executions and warm bytes moved — must both be zero; the JSON
// artifact carries the warm-vs-cold hit-rate bar for the trend gate.
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
	fmt.Printf("shared cache: %d stores, %d hits, %d misses; elapsed %v\n",
		res.CacheStats.Stores, res.CacheStats.Hits, res.CacheStats.Misses, res.Elapsed.Round(time.Millisecond))
	for _, v := range res.Violations {
		fmt.Printf("    VIOLATION: %s\n", v)
	}

	if err := writeJSON(o.jsonPath, struct {
		Tasks            int     `json:"tasks"`
		ColdExecutions   int     `json:"cold_executions"`
		WarmExecutions   int     `json:"warm_executions"`
		ColdBytesFetched int64   `json:"cold_bytes_fetched"`
		WarmBytesMoved   int64   `json:"warm_bytes_moved"`
		WarmHitRate      float64 `json:"warm_hit_rate"`
		RouteHits        int64   `json:"route_hits"`
		RouteMisses      int64   `json:"route_misses"`
		RoutedToHolder   int     `json:"routed_to_holder"`
		RoutedElsewhere  int     `json:"routed_elsewhere"`
		StaleRerunOK     bool    `json:"stale_rerun_ok"`
		Violations       int     `json:"violations"`
		ElapsedMs        float64 `json:"elapsed_ms"`
	}{
		res.Tasks, res.ColdExecutions, res.WarmExecutions,
		res.ColdBytesFetched, res.WarmBytesMoved, res.WarmHitRate,
		res.RouteHits, res.RouteMisses, res.RoutedToHolder, res.RoutedElsewhere,
		res.StaleRerunOK, len(res.Violations),
		float64(res.Elapsed.Microseconds()) / 1e3,
	}); err != nil {
		return err
	}

	if len(res.Violations) > 0 {
		return fmt.Errorf("%d locality invariant violations", len(res.Violations))
	}
	fmt.Printf("\nwarm replay moved 0 bytes and re-executed 0 tasks; every repeat ran on its digest holder\n")
	return nil
}
