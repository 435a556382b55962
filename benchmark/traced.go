package main

import (
	"context"
	"path/filepath"
	"sync"
	"time"
)

// How a traced run divides --seconds. The shares leave room for set-ups and
// the isolated calls, so a traced run takes about as long as an untraced one.
const (
	refShare    = 0.20 // untraced reference rounds, for trace.overhead_frac
	tracedShare = 0.30 // rounds with every interposer on
	forkShare   = 0.06 // each plane-ablation arm and each shard-fork arm
	submit2Runs = 5
)

// pools are the per-task samples a traced run harvests from the stamps.
type pools struct {
	admit, depRelease, settle, wake, outbound, ret, total []float64 // µs
	exec                                                  []float64 // ns
}

// harvest turns the round's stamps into samples. Large rounds are sampled at
// a fixed stride; the stamps themselves are complete.
func (p *pools) harvest(r *runner) {
	n := r.tasksPerRound()
	st := r.tr.stamps
	us := func(from, to int64) float64 { return float64(to-from) / 1e3 }
	for i := 0; i < n; i += max(1, n/20_000) {
		s := &st[i]
		if s[stExecEnter] > 0 {
			// A dependent is released when its last parent settles; a task
			// whose inputs were ready at Submit goes straight to launch.
			last := int64(0)
			if r.in.dag != nil {
				for _, par := range r.in.dag.parents[i] {
					done := st[par][stAppDone]
					if done == 0 {
						last = -1
						break
					}
					last = max(last, done)
				}
			}
			switch {
			case last < 0: // a parent settled before its callback was hooked
			case last > s[stSubmit]:
				p.depRelease = append(p.depRelease, us(last, s[stExecEnter]))
			default:
				p.admit = append(p.admit, us(s[stSubmit], s[stExecEnter]))
			}
			if s[stFnStart] > 0 {
				p.outbound = append(p.outbound, us(s[stExecEnter], s[stFnStart]))
				p.exec = append(p.exec, float64(s[stFnEnd]-s[stFnStart]))
			}
			if s[stExecDone] > 0 && s[stFnEnd] > 0 {
				p.ret = append(p.ret, us(s[stFnEnd], s[stExecDone]))
			}
			if s[stAppDone] > 0 && s[stExecDone] > 0 {
				p.settle = append(p.settle, us(s[stExecDone], s[stAppDone]))
			}
		}
		if s[stBlocked] == 1 && s[stAppDone] > 0 {
			p.wake = append(p.wake, max(0, us(s[stAppDone], s[stResult])))
		}
		if s[stResult] > 0 {
			p.total = append(p.total, us(s[stSubmit], s[stResult]))
		}
	}
}

// tracedRun measures the per-layer metrics: a short untraced reference, the
// traced rounds, the workload's forks, then the isolated calls.
func tracedRun(o options, newRunner func(*tracer) *runner, res *result) ([]metric, error) {
	secs := func(share float64) time.Duration {
		return time.Duration(share * o.seconds * float64(time.Second))
	}
	vals := map[string]metric{}
	put := func(ms ...metric) {
		for _, m := range ms {
			vals[m.Name] = m
		}
	}

	// Untraced reference: same code, same inputs, no interposer.
	ref := newRunner(nil)
	if err := ref.open(); err != nil {
		return nil, err
	}
	refPh := runPhase(ref, secs(refShare))
	res.Failed += refPh.failed
	def := ref.def
	if def.name == "tp_bag" {
		m, failed := submit2(ref)
		res.Failed += failed
		put(m)
	}
	failed, err := ref.close()
	if err != nil {
		return nil, err
	}
	res.Failed += failed

	// Traced rounds.
	r := newRunner(newTracer(ref.tasksPerRound()))
	tr := r.tr
	if err := r.open(); err != nil {
		return nil, err
	}
	var p pools
	var net0 links
	if r.net != nil {
		net0 = r.net.snapshot()
	}
	events0 := int64(0)
	if r.sink != nil {
		events0 = r.sink.n.Load()
	}
	tr.on.Store(true)
	var traced phase
	roundTasks := 0 // tasks in traced rounds; probes are untraced
	for t0 := time.Now(); ; {
		tr.reset(r.tasksPerRound())
		rs := r.round()
		p.harvest(r)
		traced.rounds = append(traced.rounds, rs)
		roundTasks += rs.tasks
		pr := r.probe()
		traced.tasks += rs.tasks + pr.tasks
		res.Failed += rs.failed + pr.failed
		if time.Since(t0) >= secs(tracedShare) {
			break
		}
	}
	tr.on.Store(false)
	label := "threadpool"
	if def.htex {
		label = "htex"
	}
	if err := writeSpans(filepath.Join(o.outDir, "trace_"+def.name+".json"), r, label); err != nil {
		return nil, err
	}

	n := float64(roundTasks)
	pct := func(name string, xs []float64, q float64, unit string) metric {
		asc := sorted(xs)
		return metric{Name: name, Unit: unit, Value: percentile(asc, q), dist: distSorted(asc)}
	}
	put(
		pct("dfk.admit_to_launch_us_p50", p.admit, 50, "us"),
		pct("dfk.admit_to_launch_us_p95", p.admit, 95, "us"),
		pct("dfk.dep_release_us_p50", p.depRelease, 50, "us"),
		pct("dfk.settle_us_p50", p.settle, 50, "us"),
		pct("future.wake_us_p50", p.wake, 50, "us"),
		total("dfk.batch_size_mean", "count", ratio(tr.execTasks.Load(), tr.execCalls.Load())),
		total("dfk.executor_calls_per_ktask", "count", 1000*ratio(tr.execCalls.Load(), tr.execTasks.Load())),
		total("sched.pick_ns", "ns", ratio(tr.pickNs.Load(), tr.picks.Load())),
		total("sched.picks_per_task", "count", float64(tr.picks.Load())/n),
		pct(label+".exec_ns", p.exec, 50, "ns"),
	)
	if def.htex {
		put(
			pct("htex.outbound_us_p50", p.outbound, 50, "us"),
			pct("htex.outbound_us_p95", p.outbound, 95, "us"),
			pct("htex.return_us_p50", p.ret, 50, "us"),
			pct("htex.return_us_p95", p.ret, 95, "us"),
		)
	} else {
		put(pct("threadpool.queue_us_p50", p.outbound, 50, "us"))
	}
	if def.shape == shapeRTT {
		// How much of a traced round trip the stage medians account for.
		stages := 0.0
		for _, xs := range [][]float64{p.admit, p.outbound, p.ret, p.settle, p.wake} {
			stages += median(xs)
		}
		stages += median(p.exec) / 1e3
		put(total("trace.waterfall_cover_frac", "ratio", stages/median(p.total)))
	}
	if r.net != nil {
		// Counted over rounds and probes alike, so per every task sent.
		d := r.net.snapshot()
		all := float64(traced.tasks)
		for _, l := range []struct {
			name string
			c    linkCounts
		}{{"c2i", d.c2i.sub(net0.c2i)}, {"i2m", d.i2m.sub(net0.i2m)}, {"m2i", d.m2i.sub(net0.m2i)}, {"i2c", d.i2c.sub(net0.i2c)}} {
			put(
				total("simnet.frames_per_task."+l.name, "count", float64(l.c.frames)/all),
				total("simnet.bytes_per_task."+l.name, "B", float64(l.c.bytes)/all),
				total("simnet.writes_per_task."+l.name, "count", float64(l.c.writes)/all),
			)
		}
		m2i := d.m2i.sub(net0.m2i)
		put(total("mq.frames_per_result_batch", "count", ratio(m2i.frames, m2i.resultFrames)))
	}
	if r.sink != nil {
		put(total("monitor.events_per_task", "count", float64(r.sink.n.Load()-events0)/float64(traced.tasks)))
	}
	put(total("trace.overhead_frac", "ratio", 1-median(traced.tasksPerS())/median(refPh.tasksPerS())))

	// Forks of the deployment, untraced: one plane at a time; two shards.
	fork := func(pl planes, shards int) (*phase, []float64, error) {
		fr := newRunner(nil)
		fr.pl, fr.shards = pl, shards
		if err := fr.open(); err != nil {
			return nil, nil, err
		}
		fr.rtt = fr.rtt[:0]
		ph := runPhase(fr, secs(forkShare))
		failed, err := fr.close()
		res.Failed += ph.failed + failed
		return ph, fr.rtt, err
	}
	if def.planes != (planes{}) {
		for _, arm := range []struct {
			name string
			pl   planes
		}{
			{"planes.off_tasks_per_s", planes{}},
			{"wal.on_tasks_per_s", planes{wal: true}},
			{"health.on_tasks_per_s", planes{health: true}},
			{"monitor.on_tasks_per_s", planes{monitor: true}},
			{"fair.tenants_tasks_per_s", planes{tenants: true}},
			{"memo.mix_tasks_per_s", planes{memo: true}},
		} {
			ph, _, err := fork(arm.pl, 0)
			if err != nil {
				return nil, err
			}
			put(medianOf(arm.name, "1/s", ph.tasksPerS()))
		}
	}
	if def.htex {
		ph, rtt, err := fork(planes{}, 2)
		if err != nil {
			return nil, err
		}
		put(medianOf("htex.shards2_tasks_per_s", "1/s", ph.tasksPerS()),
			medianOf("htex.shards2_rtt_p50_us", "us", rtt))
	}
	if failed, err = r.close(); err != nil {
		return nil, err
	}
	res.Failed += failed

	iso, err := isolatedCalls(r, o.scale)
	if err != nil {
		return nil, err
	}
	put(iso...)

	// Every per-layer metric is reported by every workload; a layer that is
	// not on this workload's path did no work and took no time here: 0.
	out := make([]metric, 0, len(perLayer))
	for _, pm := range perLayer {
		m, ok := vals[pm.name]
		if !ok {
			m = total(pm.name, pm.unit, 0)
			m.N = 0
		}
		out = append(out, m)
	}
	return out, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// submit2 repeats the round with two submitter goroutines, each sending half,
// and reports wall time of the submission phase per task: the number to read
// beside submit_ns_per_task (parallel submission should not be slower).
func submit2(r *runner) (metric, int) {
	n := r.tasksPerRound()
	ctx := context.Background()
	var xs []float64
	failed := 0
	for run := 0; run < submit2Runs; run++ {
		r.prog.attempted.Add(int64(n))
		var wg sync.WaitGroup
		t0 := time.Now()
		for half := 0; half < 2; half++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := half * n / 2; i < (half+1)*n/2; i++ {
					r.futs[i] = r.echo.Submit(ctx, []any{i})
				}
			}()
		}
		wg.Wait()
		xs = append(xs, float64(time.Since(t0))/float64(n))
		var rs roundStat
		for i := 0; i < n/2*2; i++ {
			r.check(r.futs[i], i, &rs)
		}
		failed += rs.failed
	}
	return medianOf("dfk.submit2_ns_per_task", "ns", xs), failed
}

// layerMetric names one per-layer metric and its unit.
type layerMetric struct{ name, unit string }

// perLayer lists every per-layer metric, in the order they are printed. It
// must match BENCHMARK.json's per_layer (a test checks).
var perLayer = []layerMetric{
	{"dfk.admit_to_launch_us_p50", "us"}, {"dfk.admit_to_launch_us_p95", "us"},
	{"dfk.dep_release_us_p50", "us"}, {"dfk.settle_us_p50", "us"}, {"future.wake_us_p50", "us"},
	{"dfk.batch_size_mean", "count"}, {"dfk.executor_calls_per_ktask", "count"},
	{"dfk.submit2_ns_per_task", "ns"},
	{"sched.pick_ns", "ns"}, {"sched.picks_per_task", "count"},
	{"threadpool.queue_us_p50", "us"}, {"threadpool.exec_ns", "ns"},
	{"htex.outbound_us_p50", "us"}, {"htex.outbound_us_p95", "us"}, {"htex.exec_ns", "ns"},
	{"htex.return_us_p50", "us"}, {"htex.return_us_p95", "us"},
	{"simnet.frames_per_task.c2i", "count"}, {"simnet.bytes_per_task.c2i", "B"}, {"simnet.writes_per_task.c2i", "count"},
	{"simnet.frames_per_task.i2m", "count"}, {"simnet.bytes_per_task.i2m", "B"}, {"simnet.writes_per_task.i2m", "count"},
	{"simnet.frames_per_task.m2i", "count"}, {"simnet.bytes_per_task.m2i", "B"}, {"simnet.writes_per_task.m2i", "count"},
	{"simnet.frames_per_task.i2c", "count"}, {"simnet.bytes_per_task.i2c", "B"}, {"simnet.writes_per_task.i2c", "count"},
	{"mq.frames_per_result_batch", "count"},
	{"monitor.events_per_task", "count"},
	{"planes.off_tasks_per_s", "1/s"}, {"wal.on_tasks_per_s", "1/s"}, {"health.on_tasks_per_s", "1/s"},
	{"monitor.on_tasks_per_s", "1/s"}, {"fair.tenants_tasks_per_s", "1/s"}, {"memo.mix_tasks_per_s", "1/s"},
	{"wal.bytes_per_task", "B"},
	{"htex.shards2_tasks_per_s", "1/s"}, {"htex.shards2_rtt_p50_us", "us"},
	{"trace.overhead_frac", "ratio"}, {"trace.waterfall_cover_frac", "ratio"},
	{"serialize.encode_args_ns", "ns"}, {"serialize.decode_args_ns", "ns"}, {"serialize.payload_bytes", "B"},
	{"serialize.stream_frame_ns_per_task", "ns"},
	{"task.add_retire_ns", "ns"}, {"task.edge_ns", "ns"}, {"future.settle_ns", "ns"},
	{"fair.mpsc_push_take_ns", "ns"}, {"fair.queue_push_take_ns", "ns"}, {"fair.admit_release_ns", "ns"},
	{"memo.key_ns", "ns"}, {"memo.hit_ns", "ns"}, {"memo.store_ns", "ns"},
	{"wal.submit_ns", "ns"},
	{"health.classify_ns", "ns"}, {"health.breaker_ns", "ns"},
	{"monitor.store_emit_ns", "ns"}, {"monitor.store_bytes_per_event", "B"},
	{"threadpool.raw_rtt_ns", "ns"}, {"threadpool.raw_tasks_per_s", "1/s"},
	{"htex.raw_rtt_us", "us"}, {"htex.raw_tasks_per_s", "1/s"},
	{"mq.rtt_us", "us"},
}

// hungMetrics is what the watchdog reports: every metric of the run's kind,
// valued 0, beside the count of tasks that never settled.
func hungMetrics(trace bool) []metric {
	list := endToEndMetrics
	if trace {
		list = perLayer
	}
	ms := make([]metric, len(list))
	for i, m := range list {
		ms[i] = total(m.name, m.unit, 0)
	}
	return ms
}
