package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/dfk"
	"repro/internal/executor"
	"repro/internal/executor/htex"
	"repro/internal/executor/threadpool"
	"repro/internal/future"
	"repro/internal/health"
	"repro/internal/provider"
	"repro/internal/sched"
	"repro/internal/serialize"
	"repro/internal/simnet"
)

// Every workload is a closed loop with one submitter goroutine — a Parsl
// program is a script that submits and then waits — and workers sized to the
// two-core runner: never more busy threads than cores.
const (
	poolWorkers = 2
	dagWindow   = 8192 // live frontier the tp_dag submitter keeps
	warmKeys    = 1024 // memo keys tp_planes warms in set-up
)

type shape int

const (
	shapeBag shape = iota // submit a round of independent tasks, then wait for all
	shapeDAG              // windowed fan-out/fan-in pipelines
	shapeRTT              // one task at a time: submit, wait
)

// planes selects tp_planes' optional DFK planes; the ablation turns on one at
// a time.
type planes struct{ wal, health, monitor, tenants, memo bool }

var allPlanes = planes{wal: true, health: true, monitor: true, tenants: true, memo: true}

type workloadDef struct {
	name, why string
	shape     shape
	htex      bool
	planes    planes
	// roundTasks is the fixed task count of one round; rates are the median
	// over rounds.
	roundTasks int
	// probes is how many single-task round trips follow each round on the
	// then idle system; they give rtt_* on workloads that are not shapeRTT.
	probes int
}

var workloads = []workloadDef{
	{name: "tp_bag", shape: shapeBag, roundTasks: 100_000, probes: 500,
		why: "independent tasks on threadpool: the dfk admit/route/lane/settle path does all the work, wire and htex none"},
	{name: "tp_dag", shape: shapeDAG, roundTasks: 50_000, probes: 500,
		why: "windowed fan-out/fan-in pipelines on threadpool: dependency edges, future callbacks and record recycling dominate"},
	{name: "tp_planes", shape: shapeBag, planes: allPlanes, roundTasks: 50_000, probes: 500,
		why: "tp_bag's shape with WAL, health, monitor, three tenants and a memo mix on together: a tax on the planes shows only here"},
	{name: "htex_bag", shape: shapeBag, htex: true, roundTasks: 500, probes: 10,
		why: "independent tasks through htex client, interchange and manager over simnet: throughput use of the wire path"},
	{name: "htex_rtt", shape: shapeRTT, htex: true, roundTasks: 50,
		why: "one task at a time through the same htex deployment: latency use of the layer htex_bag uses for throughput"},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// taskPlan is one tp_planes submission drawn from the seed.
type taskPlan struct {
	memo   bool // goes to the WithMemoize(true) app
	fresh  bool // memo only: a key never seen (miss + store) instead of a warmed one (hit)
	tenant uint8
	key    int32 // memo hit only: which warmed key
}

// inputs are everything a run draws from --seed; the library sees only them.
type inputs struct {
	seed int64
	dag  *dagSpec
	plan []taskPlan
}

func genInputs(def *workloadDef, seed int64) *inputs {
	in := &inputs{seed: seed}
	switch {
	case def.shape == shapeDAG:
		in.dag = genDAG(seed, def.roundTasks)
	case def.planes != planes{}:
		in.plan = genPlan(seed, def.roundTasks)
	}
	return in
}

// genPlan interleaves three tenants round-robin from a seeded offset and
// sends every 4th submission (seeded phase) to the memo app; 4 in 5 of those
// repeat a warmed key.
func genPlan(seed int64, n int) []taskPlan {
	rng := rand.New(rand.NewSource(seed))
	tenant0, memo0 := rng.Intn(3), rng.Intn(4)
	plan := make([]taskPlan, n)
	for i := range plan {
		p := &plan[i]
		p.tenant = uint8((i + tenant0) % 3)
		if i%4 == memo0 {
			p.memo = true
			if rng.Intn(5) == 0 {
				p.fresh = true
			} else {
				p.key = int32(rng.Intn(warmKeys))
			}
		}
	}
	return plan
}

// roundStat is one round's outcome.
type roundStat struct {
	tasks    int
	failed   int
	submitNs int64 // time the script was blocked in App.Submit
	wallNs   int64 // first Submit to last Result
}

// progress is shared with the watchdog: tasks submitted and tasks whose value
// has been checked.
type progress struct{ attempted, settled atomic.Int64 }

// runner is one deployment of one workload: a DFK, its executor, its apps.
type runner struct {
	def    *workloadDef
	pl     planes
	shards int
	in     *inputs
	tr     *tracer // nil in the untraced run
	prog   *progress
	tmp    string // parent for the WAL directory

	d        *dfk.DFK
	echo     *dfk.App
	memo     *dfk.App
	node     *dfk.App
	sink     *countingSink
	net      *countingTransport
	walDir   string
	memoRuns atomic.Int64 // executions of the memo app's body
	memoWant int64        // executions the oracle expects
	tenants  [3][]dfk.CallOption

	futs     []*future.Future
	pipePrev []*future.Future
	rounds   int
	rtt      []float64 // µs, one per single-task round trip
}

// open builds the deployment and runs the warm-up round. Its duration is one
// setup_s sample.
func (r *runner) open() error {
	reg := serialize.NewRegistry()
	var ex batchExecutor
	if r.def.htex {
		var net simnet.Transport = simnet.NewNetwork(0)
		if r.tr != nil && r.shards <= 1 {
			r.net = &countingTransport{inner: net}
			net = r.net
		}
		ex = newHTEX(reg, net, r.shards)
	} else {
		ex = threadpool.New("threadpool", poolWorkers, reg)
	}
	cfg := dfk.Config{Registry: reg, Seed: r.in.seed*2 + 1}
	wrap := func(fn serialize.Fn) serialize.Fn { return fn }
	if r.tr != nil {
		ex = &tracedExecutor{inner: ex, t: r.tr}
		cfg.Scheduler = &tracedSched{inner: sched.NewRandom(cfg.Seed), t: r.tr}
		wrap = r.tr.wrapFn
	}
	cfg.Executors = []executor.Executor{ex}
	if r.pl.wal {
		dir, err := os.MkdirTemp(r.tmp, "wal-")
		if err != nil {
			return err
		}
		r.walDir = dir
		cfg.WAL, cfg.WALDir = true, dir
	}
	if r.pl.health {
		cfg.Health = &health.Options{}
		cfg.Retries = 2
	}
	if r.pl.monitor {
		r.sink = &countingSink{}
		cfg.Monitor = r.sink
	}
	if r.pl.tenants {
		for i, w := range []int{4, 2, 1} {
			r.tenants[i] = []dfk.CallOption{dfk.WithTenant(fmt.Sprintf("tenant%d", i), w)}
		}
	}
	d, err := dfk.New(cfg)
	if err != nil {
		return err
	}
	r.d = d
	if r.echo, err = d.PythonApp("echo", wrap(echoFn)); err != nil {
		return err
	}
	if r.node, err = d.PythonApp("node", wrap(nodeFn)); err != nil {
		return err
	}
	counted := func(args []any, kw map[string]any) (any, error) {
		r.memoRuns.Add(1)
		return echoFn(args, kw)
	}
	if r.memo, err = d.PythonApp("memo_echo", wrap(counted), dfk.WithMemoize(true)); err != nil {
		return err
	}
	r.futs = make([]*future.Future, max(r.tasksPerRound(), warmKeys))
	r.pipePrev = make([]*future.Future, dagPipes)
	if r.pl.memo {
		if err := r.warmMemo(); err != nil {
			return err
		}
	}
	if rs := r.round(); rs.failed > 0 {
		return fmt.Errorf("%s: %d of %d warm-up tasks failed", r.def.name, rs.failed, rs.tasks)
	}
	return nil
}

// newHTEX is the benchmarked htex deployment: one interchange and one manager
// with two workers; the shard fork runs two interchanges, each with one
// single-worker manager, on the same cores.
func newHTEX(reg *serialize.Registry, tr simnet.Transport, shards int) batchExecutor {
	nodes, workers := 1, poolWorkers
	if shards > 1 {
		nodes, workers = shards, poolWorkers/shards
	}
	return htex.New(htex.Config{
		Label:      "htex",
		Transport:  tr,
		Registry:   reg,
		Provider:   provider.NewLocal(provider.Config{NodesPerBlock: nodes}),
		InitBlocks: 1,
		Manager:    htex.ManagerConfig{Workers: workers, Prefetch: workers},
		Shards:     shards,
	})
}

// warmMemo stores warmKeys results so the plan's repeats take the hit path.
func (r *runner) warmMemo() error {
	for k := 0; k < warmKeys; k++ {
		r.futs[k] = r.memo.Submit(context.Background(), []any{k})
	}
	for k := 0; k < warmKeys; k++ {
		if v, err := r.futs[k].Result(); err != nil || v != k {
			return fmt.Errorf("warm memo key %d: got %v, %v", k, v, err)
		}
	}
	r.memoWant += warmKeys
	return nil
}

// close shuts the deployment down and returns how many tasks the end-of-run
// oracle found wrong: the memo app must have run exactly once per distinct key.
func (r *runner) close() (failed int, err error) {
	if r.d != nil {
		err = r.d.Shutdown()
	}
	if r.walDir != "" {
		_ = os.RemoveAll(r.walDir) // scratch; a leftover is only disk space
	}
	if got := r.memoRuns.Load(); got != r.memoWant {
		failed = int(max(got-r.memoWant, r.memoWant-got))
	}
	return failed, err
}

func (r *runner) tasksPerRound() int {
	if r.in.dag != nil {
		return r.in.dag.nodes
	}
	if r.in.plan != nil {
		return len(r.in.plan)
	}
	return r.def.roundTasks
}

func (r *runner) tracing() bool { return r.tr != nil && r.tr.on.Load() }

// round runs one round of the workload's shape and checks every value.
func (r *runner) round() roundStat {
	r.rounds++
	var rs roundStat
	switch r.def.shape {
	case shapeDAG:
		rs = r.roundDAG()
	case shapeRTT:
		rs = r.roundTrips(r.def.roundTasks)
	default:
		rs = r.roundBag()
	}
	if r.tracing() {
		// Done-callbacks run after a future's waiters are released; WaitAll
		// orders the last stamps before the harvest reads them.
		r.d.WaitAll()
	}
	return rs
}

// check compares one settled future with the oracle's value.
func (r *runner) check(f *future.Future, want int, rs *roundStat) {
	v, err := f.Result()
	if got, ok := toInt(v); err != nil || !ok || got != want {
		rs.failed++
	}
	r.prog.settled.Add(1)
}

// submit calls App.Submit; in a traced round it also stamps the call and its
// return and hooks the app future's completion.
func (r *runner) submit(tracing bool, i int, app *dfk.App, args []any, opts []dfk.CallOption) *future.Future {
	if !tracing {
		return app.Submit(context.Background(), args, opts...)
	}
	st := &r.tr.stamps[i]
	st[stSubmit] = r.tr.now()
	f := app.Submit(context.Background(), args, opts...)
	st[stSubmitted] = r.tr.now()
	// A future already done would run the callback here and now; its real
	// completion time is unknown, so it gets no stamp.
	if !f.Done() {
		f.AddDoneCallback(r.tr.appDone(i))
	}
	return f
}

// await checks a future's value; in a traced round it also stamps Result's
// return and whether the script had to park for it.
func (r *runner) await(tracing bool, i int, f *future.Future, want int, rs *roundStat) {
	if !tracing {
		r.check(f, want, rs)
		return
	}
	blocked := !f.Done()
	r.check(f, want, rs)
	st := &r.tr.stamps[i]
	st[stResult] = r.tr.now()
	if blocked {
		st[stBlocked] = 1
	}
}

func (r *runner) roundBag() roundStat {
	n := r.tasksPerRound()
	rs := roundStat{tasks: n}
	r.prog.attempted.Add(int64(n))
	tracing := r.tracing()
	plan := r.in.plan
	start := time.Now()
	for i := 0; i < n; i++ {
		app, arg, opts := r.echo, i, []dfk.CallOption(nil)
		if plan != nil {
			p := plan[i]
			if r.pl.tenants {
				opts = r.tenants[p.tenant]
			}
			if p.memo && r.pl.memo {
				app, arg = r.memo, int(p.key)
				if p.fresh {
					arg = freshBase + r.rounds<<idxBits + i
				}
			}
		}
		r.futs[i] = r.submit(tracing, i, app, []any{arg}, opts)
	}
	rs.submitNs = int64(time.Since(start))
	for i := 0; i < n; i++ {
		want := i
		if plan != nil && r.pl.memo && plan[i].memo {
			want = int(plan[i].key)
			if plan[i].fresh {
				want = freshBase + r.rounds<<idxBits + i
				r.memoWant++
			}
		}
		r.await(tracing, i, r.futs[i], want, &rs)
	}
	rs.wallNs = int64(time.Since(start))
	return rs
}

// roundTrips runs n single-task round trips and records each one's latency.
func (r *runner) roundTrips(n int) roundStat {
	rs := roundStat{tasks: n}
	r.prog.attempted.Add(int64(n))
	tracing := r.tracing()
	start := time.Now()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		f := r.submit(tracing, i, r.echo, []any{i}, nil)
		rs.submitNs += int64(time.Since(t0))
		r.await(tracing, i, f, i, &rs)
		r.rtt = append(r.rtt, float64(time.Since(t0))/1e3)
	}
	rs.wallNs = int64(time.Since(start))
	return rs
}

// probe measures single-task latency on the idle deployment between rounds.
// Its tasks count as attempted work but belong to no round and are not traced.
func (r *runner) probe() roundStat {
	if r.def.probes == 0 {
		return roundStat{}
	}
	if r.tr != nil && r.tr.on.Load() {
		r.tr.on.Store(false)
		defer r.tr.on.Store(true)
	}
	return r.roundTrips(r.def.probes)
}

func (r *runner) roundDAG() roundStat {
	sp := r.in.dag
	rs := roundStat{tasks: sp.nodes}
	r.prog.attempted.Add(int64(sp.nodes))
	tracing := r.tracing()
	clear(r.pipePrev)
	live, head := 0, 0
	awaitStage := func(st *dagStage) {
		// The reduce settles last; waiting on it first parks the script once
		// per stage.
		for id := st.reduce(); id >= st.first; id-- {
			r.await(tracing, id, r.futs[id], sp.want[id], &rs)
		}
		live -= st.nodes()
	}
	start := time.Now()
	for k := range sp.stages {
		st := &sp.stages[k]
		prev := r.pipePrev[st.pipe]
		rargs := make([]any, 1, st.nodes())
		rargs[0] = st.reduce()
		t0 := time.Now()
		for j, c := range st.consts {
			id := st.first + j
			args := make([]any, 2, 3)
			args[0], args[1] = id, c
			if prev != nil {
				args = append(args, prev)
			}
			r.futs[id] = r.submit(tracing, id, r.node, args, nil)
			rargs = append(rargs, r.futs[id])
		}
		rid := st.reduce()
		r.futs[rid] = r.submit(tracing, rid, r.node, rargs, nil)
		rs.submitNs += int64(time.Since(t0))
		r.pipePrev[st.pipe] = r.futs[rid]
		live += st.nodes()
		for live > dagWindow {
			awaitStage(&sp.stages[head])
			head++
		}
	}
	for ; head < len(sp.stages); head++ {
		awaitStage(&sp.stages[head])
	}
	rs.wallNs = int64(time.Since(start))
	return rs
}
