package main

import (
	"fmt"
	"time"

	"repro/internal/scalesim"
)

// taskDurations are the paper's four task classes (Fig. 4 columns).
var taskDurations = []time.Duration{0, 10 * time.Millisecond, 100 * time.Millisecond, time.Second}

func workerSweep(full bool) []int {
	sweep := []int{32, 128, 512, 2048, 8192}
	if full {
		sweep = append(sweep, 32768, 65536, 262144)
	}
	return sweep
}

// printSweep prints one Fig. 4 row: per task duration, a table of completion
// times per framework across the worker sweep, with '-' past a framework's
// worker cap.
func printSweep(title string, full bool, run func(p scalesim.Params, dur time.Duration, sweep []int) []scalesim.Result) {
	sweep := workerSweep(full)
	for _, dur := range taskDurations {
		fmt.Printf("\n--- %s, task duration %v (completion time, s) ---\n", title, dur)
		fmt.Printf("%-12s", "workers")
		for _, w := range sweep {
			fmt.Printf(" %9d", w)
		}
		fmt.Println()
		for _, p := range scalesim.All() {
			res := run(p, dur, sweep)
			fmt.Printf("%-12s", p.Name)
			for i := range sweep {
				if i < len(res) {
					fmt.Printf(" %9.1f", res[i].Makespan.Seconds())
				} else {
					fmt.Printf(" %9s", "-")
				}
			}
			fmt.Println()
		}
	}
}

// runStrong reproduces the top row of Fig. 4: completion time for 50 000
// tasks (5000 for FireWorks, matching the paper's reduced allocation) as
// worker count grows.
func runStrong(full bool) error {
	printSweep("strong scaling", full, func(p scalesim.Params, dur time.Duration, sweep []int) []scalesim.Result {
		tasks := 50000
		if p.Name == "fireworks" {
			tasks = 5000 // "we only launched 5000 tasks due to the limited allocation"
		}
		return scalesim.StrongScaling(p, tasks, dur, sweep)
	})
	fmt.Println("\npaper shape: HTEX best and ~flat; EXEX close; IPP/Dask degrade past 512-1024 workers;")
	fmt.Println("FireWorks ~an order of magnitude slower even with 10x fewer tasks. '-' = cannot connect that many workers.")
	return nil
}

// runWeak reproduces the bottom row of Fig. 4: 10 tasks per worker.
func runWeak(full bool) error {
	printSweep("weak scaling, 10 tasks/worker", full, func(p scalesim.Params, dur time.Duration, sweep []int) []scalesim.Result {
		return scalesim.WeakScaling(p, 10, dur, sweep)
	})
	fmt.Println("\npaper shape: flat then knee — FireWorks ~32 workers, IPP ~256, Dask/HTEX/EXEX ~1024-2048.")
	return nil
}

// runMaxWorkers reproduces the Table 2 max-workers/max-nodes columns.
func runMaxWorkers() error {
	fmt.Printf("%-12s %12s %10s %14s\n", "framework", "max workers", "max nodes", "limited by")
	for _, p := range scalesim.All() {
		alloc := 2048 // the paper's HTEX allocation limit
		if p.Name == "parsl-exex" {
			alloc = 8192 // the paper's EXEX allocation limit
		}
		r := scalesim.ProbeMaxWorkers(p, alloc)
		fmt.Printf("%-12s %12d %10d %14s\n", r.Framework, r.MaxWorkers, r.MaxNodes, r.LimitedBy)
	}
	fmt.Println("\npaper (Table 2): ipp 2048/64; htex 65536/2048*; exex 262144/8192*; fireworks 1024/32; dask 8192/256")
	fmt.Println("(* allocation-limited, not a scalability limit)")
	return nil
}

// runThroughput reproduces the Table 2 tasks/second column: 50 000 no-op
// tasks on a Midway-scale pool.
func runThroughput() error {
	fmt.Printf("%-12s %14s\n", "framework", "tasks/second")
	for _, p := range scalesim.All() {
		r := scalesim.Throughput(p, 256)
		fmt.Printf("%-12s %14s\n", r.Framework, scalesim.FormatRate(r.Rate))
	}
	fmt.Println("\npaper (Table 2): ipp 330, htex 1181, exex 1176, fireworks 4, dask 2617")
	return nil
}
