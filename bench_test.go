// Ablation benchmarks for the paper's design choices and the submit-path
// micro-benchmarks. The paper's tables and figures have one driver each,
// `parsl-bench latency|strong|weak|throughput|maxworkers|elasticity` (README.md,
// "Reproducing the paper's figures"); nothing here repeats them.
//
//	BenchmarkAblation*                — batching, relay, selection, memoization,
//	                                    parallelism, DFK scheduler policy
//	BenchmarkDFKSubmission[Parallel]  — the submit path, serial and contended
//	BenchmarkWALSubmission            — the same path with the durable log off/on
package parsl_test

import (
	"fmt"
	"testing"
	"time"

	"repro"

	"repro/internal/executor"
	"repro/internal/executor/htex"
	"repro/internal/executor/llex"
	"repro/internal/executor/threadpool"
	"repro/internal/provider"
	"repro/internal/serialize"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// benchRegistry builds a registry with the standard bench apps.
func benchRegistry(b *testing.B) *serialize.Registry {
	b.Helper()
	reg := serialize.NewRegistry()
	if err := workload.RegisterBenchApps(reg); err != nil {
		b.Fatal(err)
	}
	return reg
}

// latencyLoop measures sequential no-op round trips: ns/op is the single-task
// latency.
func latencyLoop(b *testing.B, ex executor.Executor) {
	b.Helper()
	if err := ex.Start(); err != nil {
		b.Fatal(err)
	}
	defer ex.Shutdown()
	// Warm up until the first task completes (manager registration etc.).
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := ex.Submit(serialize.TaskMsg{ID: -1, App: "noop"}).ResultTimeout(time.Second); err == nil {
			break
		}
		if time.Now().After(deadline) {
			b.Fatal("executor never became ready")
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.Submit(serialize.TaskMsg{ID: int64(i), App: "noop"}).Result(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationHTEXBatching quantifies §4.3.1's batching/prefetch claim:
// manager batching + prefetch vs one-at-a-time dispatch, 512 no-ops on 4
// workers.
func BenchmarkAblationHTEXBatching(b *testing.B) {
	run := func(b *testing.B, batch, prefetch int) {
		reg := benchRegistry(b)
		ex := htex.New(htex.Config{
			Label: "htex", Transport: simnet.Midway(), Registry: reg,
			Provider:    provider.NewLocal(provider.Config{NodesPerBlock: 1}),
			InitBlocks:  1,
			Manager:     htex.ManagerConfig{Workers: 4, Prefetch: prefetch},
			Interchange: htex.InterchangeConfig{BatchSize: batch, Seed: 1},
		})
		if err := ex.Start(); err != nil {
			b.Fatal(err)
		}
		defer ex.Shutdown()
		for {
			if _, err := ex.Submit(serialize.TaskMsg{ID: -1, App: "noop"}).ResultTimeout(time.Second); err == nil {
				break
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			futs := make([]*parsl.Future, 512)
			for j := range futs {
				futs[j] = ex.Submit(serialize.TaskMsg{ID: int64(i*512 + j), App: "noop"})
			}
			for _, f := range futs {
				if _, err := f.Result(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("batched-prefetch", func(b *testing.B) { run(b, 16, 8) })
	b.Run("single-no-prefetch", func(b *testing.B) { run(b, 1, 0) })
}

// BenchmarkAblationLLEXvsHTEX isolates the stateless-relay latency trade
// (§4.3.3): same network, one worker, sequential tasks.
func BenchmarkAblationLLEXvsHTEX(b *testing.B) {
	b.Run("llex-stateless", func(b *testing.B) {
		latencyLoop(b, llex.New(llex.Config{
			Label: "llex", Transport: simnet.Midway(), Registry: benchRegistry(b), Workers: 1,
		}))
	})
	b.Run("htex-tracking", func(b *testing.B) {
		latencyLoop(b, htex.New(htex.Config{
			Label: "htex", Transport: simnet.Midway(), Registry: benchRegistry(b),
			Provider:   provider.NewLocal(provider.Config{NodesPerBlock: 1}),
			InitBlocks: 1, Manager: htex.ManagerConfig{Workers: 1},
		}))
	})
}

// BenchmarkAblationScheduling compares the paper's randomized manager
// selection with deterministic round-robin (§4.3.1 claims randomization for
// fairness): 512 tasks over 4 managers of unequal speed — the skew shows up
// in completion time.
func BenchmarkAblationScheduling(b *testing.B) {
	run := func(b *testing.B, sel htex.Selection) {
		reg := benchRegistry(b)
		ex := htex.New(htex.Config{
			Label: "htex", Transport: simnet.Midway(), Registry: reg,
			Provider:    provider.NewLocal(provider.Config{NodesPerBlock: 4}),
			InitBlocks:  1,
			Manager:     htex.ManagerConfig{Workers: 2, Prefetch: 2},
			Interchange: htex.InterchangeConfig{Seed: 1, Selection: sel},
		})
		if err := ex.Start(); err != nil {
			b.Fatal(err)
		}
		defer ex.Shutdown()
		for {
			if _, err := ex.Submit(serialize.TaskMsg{ID: -1, App: "noop"}).ResultTimeout(time.Second); err == nil {
				break
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			futs := make([]*parsl.Future, 512)
			for j := range futs {
				futs[j] = ex.Submit(serialize.TaskMsg{ID: int64(i*512 + j), App: "noop"})
			}
			for _, f := range futs {
				if _, err := f.Result(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("random", func(b *testing.B) { run(b, htex.SelectRandom) })
	b.Run("round-robin", func(b *testing.B) { run(b, htex.SelectRoundRobin) })
}

// BenchmarkAblationMemoization measures §4.6 memoization: repeated identical
// calls with and without the memo table.
func BenchmarkAblationMemoization(b *testing.B) {
	run := func(b *testing.B, memoize bool) {
		d, err := parsl.NewLocal(2)
		if err != nil {
			b.Fatal(err)
		}
		defer d.Shutdown()
		expensive, err := d.PythonApp("expensive", func(args []any, _ map[string]any) (any, error) {
			time.Sleep(2 * time.Millisecond)
			return args[0], nil
		}, parsl.WithMemoize(memoize))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := expensive.Call(42).Result(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("memoized", func(b *testing.B) { run(b, true) })
	b.Run("unmemoized", func(b *testing.B) { run(b, false) })
}

// BenchmarkAblationParallelism sweeps the elasticity strategy's parallelism
// knob (§4.4) on the DES-free strategy math (cheap, so it can run hot).
func BenchmarkAblationParallelism(b *testing.B) {
	for _, para := range []float64{0.25, 0.5, 1.0} {
		b.Run(fmt.Sprintf("p%.2f", para), func(b *testing.B) {
			r, err := workload.RunElasticity(workload.ElasticityConfig{
				TimeScale: 4 * time.Millisecond, Elastic: true, Parallelism: para,
			})
			if err != nil {
				b.Fatal(err)
			}
			for i := 1; i < b.N; i++ { // first run reported; rest keep timer honest
				_, _ = workload.RunElasticity(workload.ElasticityConfig{
					TimeScale: 4 * time.Millisecond, Elastic: true, Parallelism: para,
				})
			}
			b.ReportMetric(r.Utilization*100, "utilization%")
			b.ReportMetric(r.MakespanSeconds, "paperSeconds")
		})
	}
}

// submissionApp is the deployment the submission benchmarks and the allocation
// ceiling share: submissionDFK with one no-op app.
func submissionApp(tb testing.TB, walOn bool) *parsl.App {
	tb.Helper()
	noop, err := submissionDFK(tb, walOn).PythonApp("bench-noop", func([]any, map[string]any) (any, error) { return nil, nil })
	if err != nil {
		tb.Fatal(err)
	}
	return noop
}

// submissionDFK is a DFK over four threadpool workers, the durable log off or
// on, shut down when tb ends.
func submissionDFK(tb testing.TB, walOn bool) *parsl.DFK {
	tb.Helper()
	reg := serialize.NewRegistry()
	cfg := parsl.Config{
		Registry:  reg,
		Executors: []executor.Executor{threadpool.New("tp", 4, reg)},
	}
	if walOn {
		cfg.WAL = true
		cfg.WALDir = tb.TempDir()
	}
	d, err := parsl.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = d.Shutdown() })
	return d
}

// walArms are the two deployments submissionDFK builds.
var walArms = []struct {
	name  string
	walOn bool
}{{"wal-off", false}, {"wal-on", true}}

// submitAndWait submits n independent tasks through submit, then waits for
// them all.
func submitAndWait(tb testing.TB, n int, submit func(i int) *parsl.Future) {
	tb.Helper()
	futs := make([]*parsl.Future, n)
	for i := range futs {
		futs[i] = submit(i)
	}
	for _, f := range futs {
		if _, err := f.Result(); err != nil {
			tb.Fatal(err)
		}
	}
}

// callNoop submits noop with the task's index as its argument.
func callNoop(noop *parsl.App) func(int) *parsl.Future {
	return func(i int) *parsl.Future { return noop.Call(i) }
}

// BenchmarkDFKSubmission measures raw DFK task-graph overhead (§4.1: "the
// execution time complexity of a task graph with n tasks and e edges is
// O(n+e)"): submissions per second through the full dependency machinery.
func BenchmarkDFKSubmission(b *testing.B) {
	noop := submissionApp(b, false)
	b.ResetTimer()
	submitAndWait(b, b.N, callNoop(noop))
}

// BenchmarkDFKSubmissionParallel measures the submit hot path under
// contention: many goroutines calling App.Call at once, exercising the
// sharded task graph and the batched dispatch pipeline. Compare ns/op with
// BenchmarkDFKSubmission — the parallel path must not be slower than the
// serial one.
func BenchmarkDFKSubmissionParallel(b *testing.B) {
	noop := submissionApp(b, false)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var futs []*parsl.Future
		for pb.Next() {
			futs = append(futs, noop.Call(1))
		}
		for _, f := range futs {
			if _, err := f.Result(); err != nil {
				// b.Fatal is not allowed off the benchmark goroutine.
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkWALSubmission measures what the durable dataflow log costs on the
// submit hot path: BenchmarkDFKSubmission's workload, once with the WAL off
// (must be byte-identical to not having the subsystem at all) and once with it
// on (group commit amortizes the fsync).
func BenchmarkWALSubmission(b *testing.B) {
	for _, arm := range walArms {
		b.Run(arm.name, func(b *testing.B) {
			noop := submissionApp(b, arm.walOn)
			b.ResetTimer()
			submitAndWait(b, b.N, callNoop(noop))
		})
	}
}

// BenchmarkAblationDFKScheduler compares the DFK's executor-selection
// policies on an asymmetric deployment (one 8-worker pool, one 1-worker
// pool, 512 one-millisecond tasks per round): the paper's random policy
// sprays half the work at the small pool, round-robin likewise, while the
// capacity-aware policy routes by live load.
func BenchmarkAblationDFKScheduler(b *testing.B) {
	for _, policy := range []string{"random", "round-robin", "least-outstanding"} {
		b.Run(policy, func(b *testing.B) {
			d, err := parsl.NewLocalMulti(policy, 8, 1)
			if err != nil {
				b.Fatal(err)
			}
			defer d.Shutdown()
			work, err := d.PythonApp("bench-work", func([]any, map[string]any) (any, error) {
				time.Sleep(time.Millisecond)
				return nil, nil
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				futs := make([]*parsl.Future, 512)
				for j := range futs {
					futs[j] = work.Call(j)
				}
				for _, f := range futs {
					if _, err := f.Result(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
