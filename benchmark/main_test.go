package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"repro/internal/future"
	"repro/internal/mq"
	"repro/internal/serialize"
	"repro/internal/simnet"
)

func TestPercentiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Error("median reordered its input")
	}
	asc := sorted(xs)
	for _, c := range []struct{ p, want float64 }{{0, 1}, {25, 2}, {50, 3}, {95, 4.8}, {100, 5}} {
		if got := percentile(asc, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("even-count median = %v, want 2.5", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
	d := distOf([]float64{4, 1, 3, 2, 5})
	if d.N != 5 || d.Q1 != 2 || d.Median != 3 || d.Q3 != 4 {
		t.Errorf("distOf = %+v", d)
	}
}

// The reported rate is the median of the rounds' rates, not total over total:
// one slow round must not move it.
func TestMedianOfRounds(t *testing.T) {
	ph := &phase{rounds: []roundStat{
		{tasks: 1000, wallNs: 1e9, submitNs: 2e6},
		{tasks: 1000, wallNs: 1e9, submitNs: 2e6},
		{tasks: 1000, wallNs: 10e9, submitNs: 9e6},
	}}
	if got := median(ph.tasksPerS()); got != 1000 {
		t.Errorf("tasks_per_s = %v, want 1000", got)
	}
	if got := median(ph.submitNsPerTask()); got != 2000 {
		t.Errorf("submit_ns_per_task = %v, want 2000", got)
	}
}

func TestDAGDeterministicAndOracle(t *testing.T) {
	a, b := genDAG(7, 5000), genDAG(7, 5000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different DAGs")
	}
	if c := genDAG(8, 5000); reflect.DeepEqual(a.want, c.want) {
		t.Error("different seeds gave the same values")
	}
	if a.nodes > 5000 || a.nodes < 5000-dagMaxWidth-1 {
		t.Errorf("nodes = %d, want just under 5000", a.nodes)
	}
	// Recompute every node from its parents alone, independently of the
	// generator's walk.
	consts := make(map[int]int)
	for _, st := range a.stages {
		if w := st.width(); w < 1 || w > dagMaxWidth {
			t.Fatalf("stage width %d", w)
		}
		for j, c := range st.consts {
			consts[st.first+j] = c
		}
	}
	for id := 0; id < a.nodes; id++ {
		sum := 0
		if c, isMap := consts[id]; isMap {
			sum += c
		}
		for _, p := range a.parents[id] {
			if int(p) >= id {
				t.Fatalf("node %d depends on later node %d", id, p)
			}
			sum += a.want[p]
		}
		if want := (sum + 1) % dagMod; a.want[id] != want {
			t.Fatalf("node %d: oracle %d, recomputed %d", id, a.want[id], want)
		}
	}
}

func TestPlanDeterministicMix(t *testing.T) {
	a, b := genPlan(3, 20000), genPlan(3, 20000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different plans")
	}
	var memo, fresh int
	tenants := [3]int{}
	for _, p := range a {
		tenants[p.tenant]++
		if p.memo {
			memo++
			if p.fresh {
				fresh++
			}
		}
	}
	if memo != 5000 {
		t.Errorf("memo submissions = %d, want every 4th = 5000", memo)
	}
	if fresh < 800 || fresh > 1200 {
		t.Errorf("fresh keys = %d, want about 1 in 5 of %d", fresh, memo)
	}
	if tenants[0] < 6666 || tenants[0] > 6667 {
		t.Errorf("tenant interleave = %v, want round-robin", tenants)
	}
}

// fakeExec records what the interposer forwards.
type fakeExec struct {
	batches  []int
	canceled []int64
}

func (f *fakeExec) Label() string    { return "fake" }
func (f *fakeExec) Start() error     { return nil }
func (f *fakeExec) Outstanding() int { return 7 }
func (f *fakeExec) Shutdown() error  { return nil }
func (f *fakeExec) Submit(m serialize.TaskMsg) *future.Future {
	return f.SubmitBatch([]serialize.TaskMsg{m})[0]
}
func (f *fakeExec) SubmitBatch(ms []serialize.TaskMsg) []*future.Future {
	f.batches = append(f.batches, len(ms))
	out := make([]*future.Future, len(ms))
	for i, m := range ms {
		out[i] = future.Completed(m.Args[0])
	}
	return out
}
func (f *fakeExec) Cancel(id int64) bool {
	f.canceled = append(f.canceled, id)
	return id == 42
}

func TestExecutorInterposerForwards(t *testing.T) {
	for _, on := range []bool{false, true} {
		inner := &fakeExec{}
		tr := newTracer(8)
		tr.on.Store(on)
		ex := &tracedExecutor{inner: inner, t: tr}
		msgs := []serialize.TaskMsg{{ID: 1, Args: []any{0}}, {ID: 2, Args: []any{1}}, {ID: 3, Args: []any{2}}}
		futs := ex.SubmitBatch(msgs)
		if !reflect.DeepEqual(inner.batches, []int{3}) {
			t.Fatalf("on=%v: inner saw batches %v, want one batch of 3", on, inner.batches)
		}
		for i, f := range futs {
			if v, err := f.Result(); err != nil || v != i {
				t.Errorf("on=%v: future %d = %v, %v", on, i, v, err)
			}
		}
		if !ex.Cancel(42) || ex.Cancel(9) || !reflect.DeepEqual(inner.canceled, []int64{42, 9}) {
			t.Errorf("on=%v: Cancel not forwarded: %v", on, inner.canceled)
		}
		if ex.Outstanding() != 7 || ex.Label() != "fake" {
			t.Errorf("on=%v: probes not forwarded", on)
		}
		if on && (tr.execCalls.Load() != 1 || tr.execTasks.Load() != 3 || tr.stamps[2][stExecDone] == 0) {
			t.Errorf("traced batch not recorded: calls=%d tasks=%d", tr.execCalls.Load(), tr.execTasks.Load())
		}
	}
}

// With the interposer in place the DFK must still take the executor's batch
// path: a tp_bag round reaches it in batches, not task by task.
func TestTracedBagUsesSubmitBatch(t *testing.T) {
	def := scaled(findWorkload("tp_bag"), 5000)
	r := &runner{def: def, in: genInputs(def, 1), tr: newTracer(5000), prog: &progress{}}
	if err := r.open(); err != nil {
		t.Fatal(err)
	}
	r.tr.on.Store(true)
	rs := r.round()
	r.tr.on.Store(false)
	if _, err := r.close(); err != nil {
		t.Fatal(err)
	}
	calls, tasks := r.tr.execCalls.Load(), r.tr.execTasks.Load()
	if rs.failed != 0 || tasks != 5000 || calls == 0 || calls >= tasks/2 {
		t.Errorf("failed=%d, %d tasks in %d executor calls: want batches", rs.failed, tasks, calls)
	}
	// Submit may return after the dispatcher has already entered the executor,
	// so stSubmitted is outside the chain; stAppDone is absent for futures
	// that settled before the script hooked them.
	chain := []int{stSubmit, stExecEnter, stFnStart, stFnEnd, stExecDone, stResult}
	for i := range 5000 {
		s := &r.tr.stamps[i]
		for k := 1; k < len(chain); k++ {
			if s[chain[k-1]] == 0 || s[chain[k]] < s[chain[k-1]] {
				t.Fatalf("task %d: stamps out of order: %v", i, *s)
			}
		}
		if s[stSubmitted] < s[stSubmit] || s[stAppDone] != 0 && s[stAppDone] < s[stExecDone] {
			t.Fatalf("task %d: stamps out of order: %v", i, *s)
		}
	}
}

func TestCountingTransportFollowsFrames(t *testing.T) {
	ct := &countingTransport{inner: simnet.NewNetwork(0)}
	router, err := mq.NewRouter(ct, "")
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	for _, id := range []string{"htex-client", "manager-1"} {
		d, err := mq.DialDealer(ct, router.Addr(), id)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		if err := d.Send(mq.Message{[]byte("RESULTS"), make([]byte, 100), nil}); err != nil {
			t.Fatal(err)
		}
		<-router.Incoming()
		if err := router.SendTo(id, mq.Message{[]byte("HB")}); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	l := ct.snapshot()
	// Dial side: HELLO (2 parts) + RESULTS (3 parts) = 5 + 7 writes; 7 of them
	// are 4-byte counts or lengths.
	want := linkCounts{writes: 12, bytes: 7*4 + int64(len("HELLO")+len("htex-client")+len("RESULTS")) + 100, frames: 2, resultFrames: 1}
	if l.c2i != want {
		t.Errorf("c2i = %+v, want %+v", l.c2i, want)
	}
	if l.m2i.frames != 2 || l.m2i.resultFrames != 1 {
		t.Errorf("m2i = %+v", l.m2i)
	}
	if back := (linkCounts{writes: 3, bytes: 10, frames: 1}); l.i2c != back || l.i2m != back {
		t.Errorf("i2c = %+v, i2m = %+v, want %+v", l.i2c, l.i2m, back)
	}
}

func smoke(t *testing.T, workload string, trace bool) *result {
	t.Helper()
	res, err := runWorkload(options{
		workload: workload, seed: 5, seconds: 0.3, trace: trace,
		scale: 0.02, setups: 1, outDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.FailedFrac != 0 || res.Attempted < 1 {
		t.Fatalf("%s: attempted=%d failed=%d", workload, res.Attempted, res.Failed)
	}
	return res
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		res := smoke(t, w.name, false)
		if len(res.Metrics) != len(endToEndMetrics) {
			t.Fatalf("%s: %d metrics, want %d", w.name, len(res.Metrics), len(endToEndMetrics))
		}
		for i, m := range res.Metrics {
			if m.Name != endToEndMetrics[i].name || m.Unit != endToEndMetrics[i].unit {
				t.Errorf("%s: metric %d is %s [%s], want %s", w.name, i, m.Name, m.Unit, endToEndMetrics[i].name)
			}
			if !(m.Value > 0) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: %s = %v, want a positive number", w.name, m.Name, m.Value)
			}
		}
	}
}

func TestSmokeTracedRuns(t *testing.T) {
	positive := map[string][]string{
		"tp_planes": {"dfk.admit_to_launch_us_p50", "dfk.settle_us_p50", "dfk.batch_size_mean", "sched.pick_ns",
			"threadpool.queue_us_p50", "threadpool.exec_ns", "monitor.events_per_task", "planes.off_tasks_per_s",
			"wal.on_tasks_per_s", "memo.mix_tasks_per_s", "wal.bytes_per_task", "serialize.encode_args_ns", "mq.rtt_us"},
		"htex_rtt": {"htex.outbound_us_p50", "htex.return_us_p95", "htex.exec_ns", "future.wake_us_p50",
			"simnet.frames_per_task.c2i", "simnet.bytes_per_task.m2i", "simnet.writes_per_task.i2c",
			"mq.frames_per_result_batch", "htex.shards2_rtt_p50_us", "trace.waterfall_cover_frac", "htex.raw_rtt_us"},
		"tp_dag": {"dfk.dep_release_us_p50", "task.edge_ns"},
	}
	for w, names := range positive {
		res := smoke(t, w, true)
		if len(res.Metrics) != len(perLayer) {
			t.Fatalf("%s: %d metrics, want %d", w, len(res.Metrics), len(perLayer))
		}
		got := map[string]float64{}
		for _, m := range res.Metrics {
			got[m.Name] = m.Value
		}
		for _, n := range names {
			if !(got[n] > 0) {
				t.Errorf("%s: %s = %v, want > 0", w, n, got[n])
			}
		}
	}
}

// A hang is a number: unsettled tasks are failed tasks, and the last line
// still carries every metric.
func TestHungRunReportsUnsettledAsFailed(t *testing.T) {
	prog := &progress{}
	prog.attempted.Store(1000)
	prog.settled.Store(940)
	res := &result{Workload: "tp_bag"}
	hung(res, prog)
	if res.Correct || res.Attempted != 1000 || res.Failed != 60 || res.FailedFrac != 0.06 {
		t.Errorf("hung run: %+v", res)
	}
	var line childResult
	if err := json.Unmarshal([]byte(lastLine(res)), &line); err != nil {
		t.Fatal(err)
	}
	if line.Correct || line.Failed != 60 || len(line.Metrics) != len(endToEndMetrics) {
		t.Errorf("last line: %+v", line)
	}
}

// BENCHMARK.json and the program must name the same workloads and metrics.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var bj struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []named  `json:"workloads"`
		EndToEnd  []named  `json:"end_to_end"`
		PerLayer  []named  `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", bj.Paths)
	}
	var ws []named
	for _, w := range workloads {
		ws = append(ws, named{Name: w.name})
	}
	if !reflect.DeepEqual(bj.Workloads, ws) {
		t.Errorf("workloads = %v, want %v", bj.Workloads, ws)
	}
	same := func(kind string, got []named, want []layerMetric) {
		var w []named
		for _, m := range want {
			w = append(w, named{m.name, m.unit})
		}
		if !reflect.DeepEqual(got, w) {
			t.Errorf("%s differ:\n json %v\n prog %v", kind, got, w)
		}
	}
	same("end_to_end", bj.EndToEnd, endToEndMetrics)
	same("per_layer", bj.PerLayer, perLayer)
}
