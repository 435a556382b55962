// Command parsl-bench regenerates every table and figure in the paper's
// evaluation (§5) and drives the recovery scenarios; `parsl-bench -h` lists
// them (the scenarios table below is the one source), `parsl-bench all` runs
// everything.
//
// Latency and elasticity (Fig. 3, Fig. 5/6) are measured on the real
// executors (goroutine workers over the in-memory network), wall clock, with
// Fig. 3's IPyParallel and Dask rows quoted from the paper; the
// Blue Waters-scale sweeps (Fig. 4, Table 2) are modelled from the paper's
// service times by the queueing recurrence in scaling.go, as documented in
// README.md, "Reproducing the paper's figures". Each figure has this one
// driver; a scenario's exit code is its gate.
package main

import (
	"flag"
	"fmt"
	"os"
)

// options are the parsed flags, handed to whichever scenarios run.
type options struct {
	tasks       int
	full        bool
	timeScaleMs int
	seed        int64
	verbose     bool
	all         bool // every scenario runs in this one process
}

// tasksOr is -tasks for the scenarios whose workload config has no default of
// its own; the rest pass o.tasks through and let 0 pick the config's default.
func (o options) tasksOr(def int) int {
	if o.tasks > 0 {
		return o.tasks
	}
	return def
}

// seeds is the seed matrix of the seeded scenarios (chaos, health, shard).
func (o options) seeds() []int64 {
	if o.seed != 0 {
		return []int64{o.seed}
	}
	return []int64{1, 2, 3, 4, 5}
}

// scenarios is the one table behind `parsl-bench <name>`, `all`, and -h.
var scenarios = []struct {
	name, about string
	run         func(o options) error
}{
	{"latency", "Fig. 3 — task-latency distributions per executor", func(o options) error { return runLatency(o.tasksOr(1000)) }},
	{"strong", "Fig. 4 (top) — strong scaling (50k tasks, 0/10/100/1000 ms)", func(o options) error { return runStrong(o.full) }},
	{"weak", "Fig. 4 (bottom) — weak scaling (10 tasks/worker)", func(o options) error { return runWeak(o.full) }},
	{"maxworkers", "Table 2 — maximum workers / nodes per framework", func(options) error { return runMaxWorkers() }},
	{"throughput", "Table 2 — tasks/second per framework", func(options) error { return runThroughput() }},
	{"elasticity", "Fig. 5/6 — utilization with and without elasticity", func(o options) error { return runElasticity(o.timeScaleMs) }},
	{"noisy", "multi-tenant fairness + bounded admission under a burst", func(o options) error { return runNoisy(o.tasks) }},
	{"chaos", "fault injection: recovery invariants under a seeded schedule", runChaos},
	{"graph", "million-task DAG drain: makespan, peak RSS, record recycling", runGraph},
	{"wal", "durable-log crash matrix: exactly-once recovery, recovery time", runWAL},
	{"health", "self-healing: kill-storm recovery, breaker failover, poison quarantine", runHealth},
	{"shard", "sharded control plane: kill-one-shard failover, throughput scaling", runShard},
	{"locality", "data-aware scheduling: warm replay from the memo checkpoint (zero executions/bytes), digest routing", runLocality},
}

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: parsl-bench [flags] <scenario|all>")
		for _, sc := range scenarios {
			fmt.Fprintf(os.Stderr, "  %-11s %s\n", sc.name, sc.about)
		}
		flag.PrintDefaults()
	}
	var o options
	flag.IntVar(&o.tasks, "tasks", 0, "workload size: tasks per run, seed or crash boundary; noisy: the burst; graph: DAG nodes (0 = the scenario's own default)")
	flag.BoolVar(&o.full, "full", false, "strong, weak: run full-scale sweeps (up to 262144 modelled workers)")
	flag.IntVar(&o.timeScaleMs, "timescale", 8, "elasticity: wall milliseconds per paper second")
	flag.Int64Var(&o.seed, "seed", 0, "chaos, health, shard: run this one seed (0 = the 1..5 matrix); wal: the seed the sampled crash boundaries derive from (0 = 1)")
	flag.BoolVar(&o.verbose, "chaos-verbose", false, "chaos: print the fired fault schedule even on PASS")
	flag.Parse()

	cmd, ok := scenarioArg(flag.Args())
	if !ok {
		flag.Usage()
		os.Exit(2)
	}
	o.all = cmd == "all"
	for _, sc := range scenarios {
		if !o.all && cmd != sc.name {
			continue
		}
		fmt.Printf("\n================ %s: %s ================\n", sc.name, sc.about)
		if err := sc.run(o); err != nil {
			fmt.Fprintf(os.Stderr, "parsl-bench %s: %v\n", sc.name, err)
			os.Exit(1)
		}
	}
}

// scenarioArg picks the scenario out of the arguments left after the flags:
// none means "all", one must name a scenario. Anything after it is refused —
// Go's flag package stops at the first positional, so `parsl-bench weak -full`
// would otherwise run with -full silently ignored.
func scenarioArg(args []string) (name string, ok bool) {
	switch len(args) {
	case 0:
		return "all", true
	case 1:
		if args[0] == "all" {
			return "all", true
		}
		for _, sc := range scenarios {
			if sc.name == args[0] {
				return sc.name, true
			}
		}
	}
	return "", false
}

// runMatrix runs one scenario instance per point of a matrix (seeds, crash
// boundaries; label names the axis) and prints each point's verdict, summary
// line and violations. one returns the summary and the violations; an error
// aborts the matrix. It reports how many points violated an invariant.
func runMatrix(label string, points []int64, one func(p int64) (summary string, violations []string, err error)) (failed int, _ error) {
	for _, p := range points {
		summary, violations, err := one(p)
		if err != nil {
			return failed, fmt.Errorf("%s %d: %w", label, p, err)
		}
		verdict := "PASS"
		if len(violations) > 0 {
			verdict = "FAIL"
			failed++
		}
		fmt.Printf("%-8s %s\n", verdict, summary)
		for _, v := range violations {
			fmt.Printf("    VIOLATION: %s\n", v)
		}
	}
	return failed, nil
}
