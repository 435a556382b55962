package main

import (
	"fmt"

	"repro/internal/workload"
)

// runGraph builds and drains the windowed-chain DAG (default one million
// nodes), reporting makespan, throughput, peak RSS, and the recycling
// evidence. With -graph-rss-budget > 0 the run fails when peak RSS exceeds
// base + nodes×budget bytes — the CI memory bar proving that steady-state
// memory tracks the live frontier, not the total task count. With -json set
// the full GraphResult is written there for artifacts.
func runGraph(o options) error {
	base := int64(o.rssBaseMB) << 20
	res, err := workload.RunGraph(workload.GraphConfig{
		Nodes:        o.tasks,
		RSSBaseBytes: base,
	})
	if err != nil {
		return err
	}
	fmt.Printf("drained %d-node DAG (%d chains × window %d, %d edges) in %.0f ms — %.0f tasks/s\n",
		res.Nodes, res.Chains, res.Window, res.Edges, res.MakespanMs, res.TasksPerSec)
	// RunGraph works out a per-task figure only when the peak is above the base
	// allowance (the default 256 MiB is above a million-node run's whole peak).
	perTask := ""
	if res.RSSPerTask > 0 {
		perTask = fmt.Sprintf(" (%.1f B/task over a %d MiB base)", res.RSSPerTask, o.rssBaseMB)
	}
	fmt.Printf("peak RSS %.1f MiB%s  live frontier max %d  recycled %d  allocs/task %.1f\n",
		float64(res.PeakRSSBytes)/(1<<20), perTask,
		res.LiveNodesMax, res.RecycledNodes, res.AllocsPerTask)
	if res.RecycledNodes != int64(res.Nodes) {
		return fmt.Errorf("recycled %d of %d records — graph reclamation leaked", res.RecycledNodes, res.Nodes)
	}
	if err := writeJSON(o.jsonPath, res); err != nil {
		return err
	}
	if o.rssBudget > 0 {
		limit := base + int64(o.rssBudget*float64(res.Nodes))
		if res.PeakRSSBytes > limit {
			return fmt.Errorf("peak RSS %d B exceeds budget %d B (%d MiB base + %.1f B/task × %d tasks)",
				res.PeakRSSBytes, limit, o.rssBaseMB, o.rssBudget, res.Nodes)
		}
		fmt.Printf("RSS budget ok: %d B ≤ %d B\n", res.PeakRSSBytes, limit)
	}
	return nil
}
