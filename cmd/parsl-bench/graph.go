package main

import (
	"fmt"

	"repro/internal/workload"
)

// The graph memory bar: peak RSS may not exceed a fixed allowance (runtime,
// executor, code pages) plus a budget per node. With record recycling the
// live frontier is chains × window (8192 records) whatever the DAG's size, so
// RSS stays near the runtime's floor; a reclamation leak retains every record
// (480 B before its future and payload) and outgrows the budget with the DAG.
const (
	graphRSSBaseBytes    = 24 << 20
	graphRSSBytesPerNode = 192
)

func graphRSSLimit(nodes int) int64 {
	return graphRSSBaseBytes + graphRSSBytesPerNode*int64(nodes)
}

// checkGraphRSS holds a drain to the memory bar: steady-state memory tracks
// the live frontier, not the total task count.
func checkGraphRSS(res *workload.GraphResult) error {
	if limit := graphRSSLimit(res.Nodes); res.PeakRSSBytes > limit {
		return fmt.Errorf("peak RSS %d B exceeds budget %d B (%d MiB base + %d B/task × %d tasks)",
			res.PeakRSSBytes, limit, graphRSSBaseBytes>>20, graphRSSBytesPerNode, res.Nodes)
	}
	return nil
}

// runGraph builds and drains the windowed-chain DAG (default one million
// nodes), reporting makespan, throughput, peak RSS, and the recycling
// evidence, and fails when a record was not recycled or the memory bar is
// passed. Peak RSS is the process's high-water mark, so under `all` — other
// scenarios ran first — the memory bar is skipped, loudly.
func runGraph(o options) error {
	res, err := workload.RunGraph(workload.GraphConfig{Nodes: o.tasks})
	if err != nil {
		return err
	}
	fmt.Printf("drained %d-node DAG (%d chains × window %d, %d edges) in %.0f ms — %.0f tasks/s\n",
		res.Nodes, res.Chains, res.Window, res.Edges, res.MakespanMs, res.TasksPerSec)
	perTask := ""
	if over := res.PeakRSSBytes - graphRSSBaseBytes; over > 0 {
		perTask = fmt.Sprintf(" (%.1f B/task over a %d MiB base)", float64(over)/float64(res.Nodes), graphRSSBaseBytes>>20)
	}
	fmt.Printf("peak RSS %.1f MiB%s  live frontier max %d  recycled %d  allocs/task %.1f\n",
		float64(res.PeakRSSBytes)/(1<<20), perTask,
		res.LiveNodesMax, res.RecycledNodes, res.AllocsPerTask)
	if res.RecycledNodes != int64(res.Nodes) {
		return fmt.Errorf("recycled %d of %d records — graph reclamation leaked", res.RecycledNodes, res.Nodes)
	}
	if o.all {
		fmt.Println("RSS budget SKIPPED: the process's peak RSS includes the scenarios that ran before this one; run `parsl-bench graph` alone")
		return nil
	}
	if err := checkGraphRSS(res); err != nil {
		return err
	}
	fmt.Printf("RSS budget ok: %d B ≤ %d B\n", res.PeakRSSBytes, graphRSSLimit(res.Nodes))
	return nil
}
