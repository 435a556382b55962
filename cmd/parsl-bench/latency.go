package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/executor"
	"repro/internal/executor/exex"
	"repro/internal/executor/htex"
	"repro/internal/executor/llex"
	"repro/internal/executor/threadpool"
	"repro/internal/provider"
	"repro/internal/serialize"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// runLatency measures Fig. 3 for this repository's four executors: the
// distribution of single-task latencies for sequential no-op tasks on a
// Midway-like network (0.07 ms RTT). Absolute values are lower than the
// paper's because goroutine workers replace Python processes (see README.md,
// "Reproducing the paper's figures"). The last column is heap allocations per
// task, the whole process's: client, relay or interchange, and worker. The
// paper's IPyParallel and Dask figures are quoted on the paper line, not
// simulated, and the ordering printed last is the one measured by p50,
// whichever it is.
func runLatency(tasks int) error {
	type build struct {
		name string
		mk   func(reg *serialize.Registry) (executor.Executor, error)
	}
	builds := []build{
		{"threadpool", func(reg *serialize.Registry) (executor.Executor, error) {
			return threadpool.New("tp", 1, reg), nil
		}},
		{"llex", func(reg *serialize.Registry) (executor.Executor, error) {
			return llex.New(llex.Config{
				Label: "llex", Transport: simnet.Midway(), Registry: reg, Workers: 1,
			}), nil
		}},
		{"htex", func(reg *serialize.Registry) (executor.Executor, error) {
			return htex.New(htex.Config{
				Label: "htex", Transport: simnet.Midway(), Registry: reg,
				Provider:   provider.NewLocal(provider.Config{NodesPerBlock: 1}),
				InitBlocks: 1,
				Manager:    htex.ManagerConfig{Workers: 1},
			}), nil
		}},
		{"exex", func(reg *serialize.Registry) (executor.Executor, error) {
			return exex.New(exex.Config{
				Label: "exex", Transport: simnet.Midway(), Registry: reg,
				Provider:   provider.NewLocal(provider.Config{NodesPerBlock: 1}),
				InitBlocks: 1,
				Pool:       exex.PoolConfig{Ranks: 2, MPILatency: 20 * time.Microsecond},
			}), nil
		}},
	}
	type measured struct {
		name string
		p50  time.Duration
	}
	var order []measured

	fmt.Printf("%-12s %10s %10s %10s %10s %10s %12s\n", "executor", "mean", "p50", "p95", "min", "max", "allocs/task")
	for _, b := range builds {
		reg := serialize.NewRegistry()
		if err := workload.RegisterBenchApps(reg); err != nil {
			return err
		}
		ex, err := b.mk(reg)
		if err != nil {
			return err
		}
		if err := ex.Start(); err != nil {
			return err
		}
		stats, err := measureLatency(ex, tasks)
		_ = ex.Shutdown()
		if err != nil {
			return fmt.Errorf("%s: %w", b.name, err)
		}
		fmt.Printf("%-12s %10s %10s %10s %10s %10s %12.1f\n", b.name,
			fmtDur(stats.mean), fmtDur(stats.p50), fmtDur(stats.p95),
			fmtDur(stats.min), fmtDur(stats.max), stats.allocs)
		order = append(order, measured{b.name, stats.p50})
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].p50 < order[j].p50 })
	names := make([]string, len(order))
	for i, m := range order {
		names[i] = m.name
	}
	fmt.Println("\npaper (Fig. 3, avg ms): threadpool ~1.0, llex 3.47, htex 6.87, exex 9.83, ipp 11.72, dask 16.19")
	fmt.Println("measured ordering by p50:", strings.Join(names, " < "))
	return nil
}

type latStats struct {
	mean, p50, p95, min, max time.Duration
	allocs                   float64 // per task, from a MemStats delta
}

// measureLatency launches `tasks` sequential no-ops, recording submission →
// completion time for each (the paper's methodology: deploy the worker
// first, then launch 1000 tasks sequentially).
func measureLatency(ex executor.Executor, tasks int) (latStats, error) {
	// Warm-up: wait until the executor actually completes a task, so
	// manager registration time is excluded.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := ex.Submit(serialize.TaskMsg{ID: -1, App: "noop"}).ResultTimeout(time.Second); err == nil {
			break
		}
		if time.Now().After(deadline) {
			return latStats{}, fmt.Errorf("executor never became ready")
		}
	}
	lats := make([]time.Duration, 0, tasks)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < tasks; i++ {
		start := time.Now()
		if _, err := ex.Submit(serialize.TaskMsg{ID: int64(i), App: "noop"}).Result(); err != nil {
			return latStats{}, err
		}
		lats = append(lats, time.Since(start))
	}
	runtime.ReadMemStats(&after)
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	var sum time.Duration
	for _, l := range lats {
		sum += l
	}
	return latStats{
		mean:   sum / time.Duration(len(lats)),
		p50:    lats[len(lats)/2],
		p95:    lats[len(lats)*95/100],
		min:    lats[0],
		max:    lats[len(lats)-1],
		allocs: float64(after.Mallocs-before.Mallocs) / float64(tasks),
	}, nil
}

func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3fms", float64(d)/float64(time.Millisecond))
}
