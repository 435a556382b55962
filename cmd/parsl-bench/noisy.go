package main

import (
	"fmt"
	"time"

	"repro/internal/workload"
)

// runNoisy runs the multi-tenant noisy-neighbor scenario in three arms, all
// with tenants weighted 10:1 and a burst tenant flooding the pool:
//
//  1. fair queuing alone (DRR weights): completion-throughput shares must
//     land within 2x of the 10:1 weight ratio, and the light tenant's
//     latency dilation is bounded by the weights (~11x), independent of the
//     burst size;
//  2. bounded admission (quota on the burst tenant): the light tenant's p95
//     submit-to-start latency must stay under 10x its uncontended value;
//  3. the pre-tenancy FIFO baseline, where the light tenant queues behind
//     the burst's ready tasks in one FIFO — the failure mode arms 1 and 2
//     exist to prevent. The DFK's ready-task window caps that queue, so the
//     dilation stops growing with the burst, but it stays far above arm 2's.
func runNoisy(burst int) error {
	if burst <= 0 {
		burst = 10000
	}
	base := workload.NoisyConfig{
		Workers: 8, QueueDepth: 8, TaskDuration: 5 * time.Millisecond,
		HeavyTasks: burst, LightTasks: 300,
		HeavyWeight: 10, LightWeight: 1,
		Tenanted: true,
	}
	report := func(name string, res workload.NoisyResult) {
		fmt.Printf("%-18s light p95 %10v (uncontended %v, %5.1fx)  shares heavy:light %6.1f:1  [%d heavy done in window, %v elapsed]\n",
			name, res.ContendedP95, res.UncontendedP95, res.LatencyRatio,
			res.ShareRatio, res.HeavyCompleted, res.Elapsed.Round(time.Millisecond))
	}
	bar := func(ok bool, msg string) {
		status := "PASS"
		if !ok {
			status = "FAIL"
		}
		fmt.Printf("  %s: %s\n", status, msg)
	}

	fmt.Printf("noisy neighbor: %d-task burst tenant vs %d-task light tenant, weights 10:1, %d workers\n\n",
		base.HeavyTasks, base.LightTasks, base.Workers)

	fair := base
	res, err := workload.RunNoisy(fair)
	if err != nil {
		return err
	}
	report("fair-shares", res)
	bar(res.ShareRatio >= 5 && res.ShareRatio <= 20,
		fmt.Sprintf("observed shares %.1f:1 within 2x of the 10:1 weight ratio", res.ShareRatio))

	quota := base
	quota.HeavyQuota = 4
	quota.QueueDepth = 2
	res, err = workload.RunNoisy(quota)
	if err != nil {
		return err
	}
	report("bounded-admission", res)
	bar(res.LatencyRatio < 10,
		fmt.Sprintf("light p95 %.1fx its uncontended value under the burst (bar: <10x)", res.LatencyRatio))

	fifo := base
	fifo.Tenanted = false
	res, err = workload.RunNoisy(fifo)
	if err != nil {
		return err
	}
	report("fifo-baseline", res)
	fmt.Printf("  (contrast: without tenancy the light tenant dilates %.1fx, behind up to a ready-task window of the burst)\n",
		res.LatencyRatio)
	return nil
}
