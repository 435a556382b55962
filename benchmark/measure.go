package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported number. Samples and the quartiles describe the rounds
// (or round trips) it is the median of; a total has one sample.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	dist
	// AllocsPerOp accompanies an isolated call's ns/op.
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
}

func total(name, unit string, v float64) metric {
	return metric{Name: name, Unit: unit, Value: v, dist: dist{N: 1, Q1: v, Median: v, Q3: v}}
}

func medianOf(name, unit string, xs []float64) metric {
	d := distOf(xs)
	return metric{Name: name, Unit: unit, Value: d.Median, dist: d}
}

// phase is one measured stretch of rounds on one runner.
type phase struct {
	rounds    []roundStat
	tasks     int // rounds and probes
	failed    int
	wall      time.Duration
	cpu       time.Duration
	mallocs   uint64
	allocated uint64
}

// runPhase repeats rounds, each followed by the workload's rtt probes, until
// the phase has lasted d. It always completes at least one round.
func runPhase(r *runner, d time.Duration) *phase {
	var ph phase
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	t0 := time.Now()
	for {
		rs := r.round()
		ph.rounds = append(ph.rounds, rs)
		pr := r.probe()
		ph.tasks += rs.tasks + pr.tasks
		ph.failed += rs.failed + pr.failed
		if time.Since(t0) >= d {
			break
		}
	}
	ph.wall = time.Since(t0)
	ph.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	ph.mallocs = m1.Mallocs - m0.Mallocs
	ph.allocated = m1.TotalAlloc - m0.TotalAlloc
	return &ph
}

// tasksPerS is each round's rate; the reported rate is their median, which
// repeats far better than total tasks over total time.
func (ph *phase) tasksPerS() []float64 {
	xs := make([]float64, len(ph.rounds))
	for i, rs := range ph.rounds {
		xs[i] = float64(rs.tasks) / (float64(rs.wallNs) / 1e9)
	}
	return xs
}

func (ph *phase) submitNsPerTask() []float64 {
	xs := make([]float64, len(ph.rounds))
	for i, rs := range ph.rounds {
		xs[i] = float64(rs.submitNs) / float64(rs.tasks)
	}
	return xs
}

// endToEndMetrics lists the untraced run's metrics, as endToEnd emits them.
var endToEndMetrics = []layerMetric{
	{"setup_s", "s"}, {"tasks_per_s", "1/s"}, {"submit_ns_per_task", "ns"},
	{"rtt_p50_us", "us"}, {"rtt_p95_us", "us"}, {"cpu_us_per_task", "us"},
	{"allocs_per_task", "count"}, {"alloc_bytes_per_task", "B"}, {"peak_rss_mb", "MiB"},
}

// endToEnd compiles the untraced run's metrics, the ones a user of the
// library feels. Every workload reports every one of them.
func endToEnd(ph *phase, rtt []float64, setups []float64) []metric {
	n := float64(ph.tasks)
	asc := sorted(rtt)
	p50 := metric{Name: "rtt_p50_us", Unit: "us", Value: percentile(asc, 50), dist: distSorted(asc)}
	p95 := p50
	p95.Name, p95.Value = "rtt_p95_us", percentile(asc, 95)
	return []metric{
		medianOf("setup_s", "s", setups),
		medianOf("tasks_per_s", "1/s", ph.tasksPerS()),
		medianOf("submit_ns_per_task", "ns", ph.submitNsPerTask()),
		p50,
		p95,
		total("cpu_us_per_task", "us", float64(ph.cpu.Microseconds())/n),
		total("allocs_per_task", "count", float64(ph.mallocs)/n),
		total("alloc_bytes_per_task", "B", float64(ph.allocated)/n),
		total("peak_rss_mb", "MiB", peakRSSMiB()),
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// timeOp runs f n times on one goroutine and returns ns and allocations per
// call: how the isolated layer calls are timed.
func timeOp(n int, f func(i int)) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(el) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// opMetric reports an isolated call as ns/op with its allocs/op beside it.
func opMetric(name string, n int, f func(i int)) metric {
	ns, allocs := timeOp(n, f)
	m := total(name, "ns", ns)
	m.N = n
	m.AllocsPerOp = &allocs
	return m
}

func printMetrics(ms []metric) {
	for _, m := range ms {
		line := fmt.Sprintf("  %-36s %14.4f %-6s n=%d", m.Name, m.Value, m.Unit, m.N)
		if m.Q1 != m.Q3 {
			line += fmt.Sprintf(" q1=%.4f q3=%.4f", m.Q1, m.Q3)
		}
		if m.AllocsPerOp != nil {
			line += fmt.Sprintf(" allocs/op=%.2f", *m.AllocsPerOp)
		}
		fmt.Println(line)
	}
}
