// Command benchmark is the repository's one end-to-end benchmark. With
// -workload it runs that workload in this process and prints, as the last
// line of standard output, one JSON object with the run's metrics: the
// end-to-end ones with -trace 0, the per-layer ones with -trace 1. Without
// -workload it runs every workload, each in a child process, and prints them
// all; -aa does that twice and compares the two sets. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// options are one run's settings. scale and setups exist for the harness
// tests, which need a whole run in a fraction of a second.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64 // multiplies every round's task count
	setups   int     // how many times set-up is timed
	outDir   string
}

// result is what one run of one workload reports.
type result struct {
	Workload   string   `json:"workload"`
	Trace      bool     `json:"trace"`
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	FailedFrac float64  `json:"failed_frac"`
	Correct    bool     `json:"correct"`
	Metrics    []metric `json:"metrics"`
	// Ungated metrics are printed and kept in the envelope but are not part
	// of the contract's last line: rtt_p99_us moves too much to bound.
	Ungated    []metric `json:"ungated,omitempty"`
	WallS      float64  `json:"wall_s"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NProc      int      `json:"nproc"`
	GoVersion  string   `json:"go_version"`
	GitHead    string   `json:"git_head"`
}

func main() {
	var o options
	var trace string
	var aa bool
	flag.StringVar(&o.workload, "workload", "", "workload to run in this process (default: all, one child process each)")
	flag.Int64Var(&o.seed, "seed", 1, "seed for the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 15, "length of the measured phase")
	flag.StringVar(&trace, "trace", "0", "1 = traced run reporting the per-layer metrics, 0 = untraced run reporting the end-to-end metrics")
	flag.BoolVar(&aa, "aa", false, "run every workload twice and compare the two sets against BENCHMARK.json's bounds")
	flag.Parse()
	if trace != "0" && trace != "1" || o.seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-aa]")
		os.Exit(2)
	}
	o.trace = trace == "1"
	o.scale, o.setups = 1, 5
	o.outDir = filepath.Join(benchDir(), "results")

	if o.workload == "" {
		os.Exit(runAll(o, aa))
	}
	if findWorkload(o.workload) == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", o.workload)
		os.Exit(2)
	}
	res, err := runWorkload(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	report(res, o.outDir)
}

// benchDir is the benchmark's own directory: the working directory when run
// from it (go run -C benchmark .), else ./benchmark (run.sh from the root).
func benchDir() string {
	if _, err := os.Stat("benchmark/go.mod"); err == nil {
		return "benchmark"
	}
	return "."
}

// report prints a run for people, writes its envelope, and ends standard
// output with the one-line JSON object the driver reads.
func report(res *result, outDir string) {
	fmt.Printf("%s seed=%d seconds=%g trace=%v: attempted=%d failed=%d failed_frac=%g wall=%.1fs\n",
		res.Workload, res.Seed, res.Seconds, res.Trace, res.Attempted, res.Failed, res.FailedFrac, res.WallS)
	printMetrics(res.Metrics)
	printMetrics(res.Ungated)
	name := res.Workload + ".json"
	if res.Trace {
		name = res.Workload + "_layers.json"
	}
	if err := writeJSON(filepath.Join(outDir, name), res); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: envelope:", err)
	}
	fmt.Println(lastLine(res))
}

// lastLine renders the driver's contract: correct, attempted, failed, metrics.
func lastLine(res *result) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]mv, len(res.Metrics))}
	for _, m := range res.Metrics {
		out.Metrics[m.Name] = mv{m.Value, m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // only NaN or Inf can get here, and that is a harness bug
	}
	return string(b)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runWorkload runs one workload in this process: set-up (timed o.setups
// times), the measured phase, the oracle's verdict.
func runWorkload(o options) (*result, error) {
	start := time.Now()
	def := findWorkload(o.workload)
	def = scaled(def, max(int(float64(def.roundTasks)*o.scale), 8))
	in := genInputs(def, o.seed)
	prog := &progress{}
	res := &result{
		Workload: def.name, Trace: o.trace, Seed: o.seed, Seconds: o.seconds,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		GoVersion: runtime.Version(), GitHead: gitHead(),
	}
	tmp := filepath.Join(o.outDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	newRunner := func(tr *tracer) *runner {
		return &runner{def: def, pl: def.planes, in: in, tr: tr, prog: prog, tmp: tmp}
	}
	stop := watchdog(o, res, prog)
	defer stop()

	var err error
	if o.trace {
		res.Metrics, err = tracedRun(o, newRunner, res)
	} else {
		res.Metrics, err = untracedRun(o, newRunner, res)
	}
	if err != nil {
		return nil, err
	}
	res.Attempted = int(prog.attempted.Load())
	res.FailedFrac = float64(res.Failed) / float64(res.Attempted)
	res.Correct = res.Failed == 0
	res.WallS = time.Since(start).Seconds()
	return res, nil
}

// scaled is def with a different round size.
func scaled(def *workloadDef, tasks int) *workloadDef {
	d := *def
	d.roundTasks = tasks
	return &d
}

// untracedRun measures the end-to-end metrics: no interposer anywhere.
func untracedRun(o options, newRunner func(*tracer) *runner, res *result) ([]metric, error) {
	var setups []float64
	var r *runner
	for i := 0; i < o.setups; i++ {
		if r != nil {
			if _, err := r.close(); err != nil {
				return nil, err
			}
		}
		r = newRunner(nil)
		t0 := time.Now()
		if err := r.open(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.rtt = r.rtt[:0] // warm-up round trips are not samples
	ph := runPhase(r, time.Duration(o.seconds*float64(time.Second)))
	lateFailed, err := r.close()
	if err != nil {
		return nil, err
	}
	res.Failed = ph.failed + lateFailed
	asc := sorted(r.rtt)
	res.Ungated = []metric{{Name: "rtt_p99_us", Unit: "us", Value: percentile(asc, 99), dist: distSorted(asc)}}
	return endToEnd(ph, r.rtt, setups), nil
}

// watchdog makes a hang a number: after three times the run's length (plus
// set-up) it dumps every goroutine, counts the tasks that never settled as
// failed, reports, and exits.
func watchdog(o options, res *result, prog *progress) (stop func()) {
	limit := min(time.Duration((3*o.seconds+30)*float64(time.Second)), 170*time.Second)
	t := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "benchmark: watchdog: %s still running after %v\n", o.workload, limit)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
		hung(res, prog)
		report(res, o.outDir)
		os.Exit(0)
	})
	return func() { t.Stop() }
}

// hung fills in the result of a run that never finished: every task that was
// submitted and never checked is a failed task, and every metric reads 0.
func hung(res *result, prog *progress) {
	res.Attempted = max(int(prog.attempted.Load()), 1)
	res.Failed = max(res.Attempted-int(prog.settled.Load()), 1)
	res.FailedFrac = float64(res.Failed) / float64(res.Attempted)
	res.Correct = false
	res.Metrics = hungMetrics(res.Trace)
}

func gitHead() string {
	if _, err := os.Stat(filepath.Join(benchDir(), "..", ".git")); err != nil {
		return "unknown" // the driver's checkout is not a repository
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
