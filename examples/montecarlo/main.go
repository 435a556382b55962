// Monte-Carlo π: the canonical map-reduce composition (§3.6's map-reduce
// pattern) — a wide map of sampling tasks reduced by a single aggregation,
// spread at random across two executors (§4.1: executor chosen at random
// when multiple are configured and no hint is given).
//
//	go run ./examples/montecarlo
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro"

	"repro/internal/dfk"
	"repro/internal/executor"
	"repro/internal/executor/htex"
	"repro/internal/executor/threadpool"
	"repro/internal/provider"
	"repro/internal/simnet"
)

func main() {
	reg := parsl.NewRegistry()
	tp := threadpool.New("threads", 4, reg)
	hx := htex.New(htex.Config{
		Label:      "htex",
		Transport:  simnet.NewNetwork(0),
		Registry:   reg,
		Provider:   provider.NewLocal(provider.Config{NodesPerBlock: 2}),
		InitBlocks: 1,
		Manager:    htex.ManagerConfig{Workers: 2},
	})
	// The monitor store keeps each task's state events: the spread report
	// below reads every attempt's executor from them after the drain.
	store := parsl.NewMonitorStore()
	d, err := parsl.New(dfk.Config{Registry: reg, Executors: []executor.Executor{tp, hx}, Monitor: store})
	if err != nil {
		log.Fatal(err)
	}
	defer d.Shutdown()

	sample, err := d.PythonApp("sample", func(args []any, _ map[string]any) (any, error) {
		seed := int64(args[0].(int))
		n := args[1].(int)
		rng := rand.New(rand.NewSource(seed))
		in := 0
		for i := 0; i < n; i++ {
			x, y := rng.Float64(), rng.Float64()
			if x*x+y*y <= 1 {
				in++
			}
		}
		return in, nil
	})
	must(err)

	reduce, err := d.PythonApp("reduce", func(args []any, _ map[string]any) (any, error) {
		total := 0
		for _, v := range args[0].([]any) {
			total += v.(int)
		}
		return total, nil
	})
	must(err)

	const tasks = 64
	const perTask = 100_000
	ctx := context.Background()
	futs := make([]any, tasks)
	for i := 0; i < tasks; i++ {
		futs[i] = sample.Submit(ctx, []any{i, perTask})
	}
	// The reduction gets a higher priority than the fan-out: once its inputs
	// resolve it jumps any still-queued sampling work.
	v, err := reduce.Submit(ctx, []any{futs}, parsl.WithPriority(10)).ResultCtx(ctx)
	must(err)

	inside := v.(int)
	pi := 4 * float64(inside) / float64(tasks*perTask)
	fmt.Printf("pi ≈ %.5f from %d samples across %d tasks\n", pi, tasks*perTask, tasks)

	// Show the random multi-executor spread (§4.1).
	spread := map[string]int{}
	for _, sp := range store.ExecutionSpans() {
		spread[sp.Executor]++
	}
	fmt.Printf("executor spread: %v\n", spread)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
