package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/executor/threadpool"
	"repro/internal/fair"
	"repro/internal/future"
	"repro/internal/health"
	"repro/internal/memo"
	"repro/internal/monitor"
	"repro/internal/mq"
	"repro/internal/serialize"
	"repro/internal/simnet"
	"repro/internal/task"
	"repro/internal/wal"
)

// The isolated calls time each layer's exported functions alone, on one
// goroutine, on arguments the workload generated. They say what a layer costs
// when nothing contends with it; the interposers say what it costs in place.
// Iteration counts are for scale 1; the harness tests shrink them.
const (
	isolatedOps   = 100_000
	storeEvents   = 200_000
	walSizedTasks = 10_000
)

// scaleOps shrinks an iteration count with the run's scale, keeping enough
// iterations for every batch-timed call to run at least once.
func scaleOps(n int, scale float64) int { return max(int(float64(n)*scale), 512) }

// sampleArgs returns argument lists as the workload's apps receive them.
func sampleArgs(in *inputs) [][]any {
	const n = 1024
	out := make([][]any, 0, n)
	if in.dag != nil {
		for i := range in.dag.stages {
			st := &in.dag.stages[i]
			for j, c := range st.consts {
				args := []any{st.first + j, c}
				if p := in.dag.parents[st.first+j]; len(p) > 0 {
					args = append(args, in.dag.want[p[0]])
				}
				out = append(out, args)
			}
			if len(out) >= n {
				return out[:n]
			}
		}
	}
	for i := len(out); i < n; i++ {
		out = append(out, []any{i})
	}
	return out
}

func isolatedCalls(r *runner, scale float64) ([]metric, error) {
	ops := scaleOps(isolatedOps, scale)
	args := sampleArgs(r.in)
	pick := func(i int) []any { return args[i%len(args)] }
	var ms []metric

	// serialize: the encode-once payload, its deep-copy decode, the stream codec.
	var bytes int
	for _, a := range args {
		p, err := serialize.EncodeArgs(a, nil)
		if err != nil {
			return nil, err
		}
		bytes += p.Len()
		p.Release()
	}
	ms = append(ms, total("serialize.payload_bytes", "B", float64(bytes)/float64(len(args))))
	ms = append(ms, opMetric("serialize.encode_args_ns", ops, func(i int) {
		p, _ := serialize.EncodeArgs(pick(i), nil)
		p.Release()
	}))
	payload, _ := serialize.EncodeArgs(args[0], nil)
	ms = append(ms, opMetric("serialize.decode_args_ns", ops, func(int) {
		_, _, _ = payload.DecodeArgs()
	}))
	const frameTasks = 16
	batch := make([]serialize.WireTask, frameTasks)
	for i := range batch {
		m := serialize.TaskMsg{ID: int64(i), App: "echo", Args: pick(i)}
		w, err := m.Wire()
		if err != nil {
			return nil, err
		}
		batch[i] = w
	}
	enc, dec := serialize.NewStreamEncoder(), serialize.NewStreamDecoder()
	var frameErr error
	frame := opMetric("serialize.stream_frame_ns_per_task", ops/frameTasks, func(int) {
		err := enc.EncodeFrame(batch, func(fr []byte) error {
			var out []serialize.WireTask
			return dec.DecodeFrame(fr, &out)
		})
		if err != nil {
			frameErr = err
		}
	})
	if frameErr != nil {
		return nil, frameErr
	}
	ms = append(ms, perItem(frame, frameTasks))

	// task: a record's whole life in the graph, and one dependency edge.
	g := task.NewGraph()
	ms = append(ms, opMetric("task.add_retire_ns", ops, func(i int) {
		rec := task.NewRecord(g.NextID(), "echo", pick(i), nil)
		g.Add(rec)
		_ = rec.SetState(task.Pending)
		_ = rec.SetState(task.Launched)
		_ = rec.SetState(task.Done)
		g.Retire(rec)
	}))
	eg := task.NewGraph()
	ids := make([]int64, ops+1)
	for i := range ids {
		ids[i] = eg.NextID()
		eg.Add(task.NewRecord(ids[i], "node", nil, nil))
	}
	ms = append(ms, opMetric("task.edge_ns", ops, func(i int) {
		_ = eg.AddEdge(ids[i], ids[i+1])
	}))

	// future: create, hook, settle, read.
	ms = append(ms, opMetric("future.settle_ns", ops, func(i int) {
		f := future.New()
		f.AddDoneCallback(func(*future.Future) {})
		_ = f.SetResult(i)
		_, _ = f.Result()
	}))

	// fair: the DFK's routing queue, a lane's DRR queue, admission.
	const take = 256
	mpsc := fair.NewMPSC(func(int) string { return "" })
	ms = append(ms, perItem(opMetric("fair.mpsc_push_take_ns", ops/take, func(i int) {
		for k := 0; k < take; k++ {
			mpsc.Push(int64(i*take+k), k)
		}
		b, _ := mpsc.Take(take)
		mpsc.PutBatch(b)
	}), take))
	tenants := [3]string{"tenant0", "tenant1", "tenant2"}
	weights := [3]int{4, 2, 1}
	q := fair.NewQueue(func(a, b int) bool { return a < b })
	ms = append(ms, perItem(opMetric("fair.queue_push_take_ns", ops/take, func(int) {
		for k := 0; k < take; k++ {
			q.Push(tenants[k%3], weights[k%3], k)
		}
		for got := 0; got < take; {
			b, _ := q.Take(take)
			got += len(b)
			q.PutBatch(b)
		}
	}), take))
	adm := fair.NewAdmission(1<<30, nil, fair.Block)
	ctx := context.Background()
	ms = append(ms, opMetric("fair.admit_release_ns", ops, func(i int) {
		_, _ = adm.Admit(ctx, tenants[i%3])
		adm.Release(tenants[i%3])
	}))

	// memo: key derivation from the payload, a hit, a store.
	mz := memo.New()
	key := memo.KeyFromPayload("memo_echo", "body", payload)
	_ = mz.Store(key, 1)
	ms = append(ms, opMetric("memo.key_ns", ops, func(int) {
		_ = memo.KeyFromPayload("memo_echo", "body", payload)
	}))
	ms = append(ms, opMetric("memo.hit_ns", ops, func(int) {
		_, _ = mz.Lookup(key)
	}))
	keys := make([]string, ops)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s-%d", key, i)
	}
	ms = append(ms, opMetric("memo.store_ns", ops, func(i int) {
		_ = mz.Store(keys[i], i)
	}))
	payload.Release()

	// wal: one task's admission record and its terminal record, on a log with
	// the default group commit and compaction; then the bytes a task's three
	// records (submit, launch, terminal) add to a log that never compacts.
	raw, _ := serialize.EncodeArgs(args[0], nil)
	defer raw.Release()
	walOps := func(name string, opts wal.Options, n int, launch bool) (metric, int64, error) {
		dir, err := os.MkdirTemp(r.tmp, "wal-iso-")
		if err != nil {
			return metric{}, 0, err
		}
		defer os.RemoveAll(dir)
		log, err := wal.Open(dir, opts)
		if err != nil {
			return metric{}, 0, err
		}
		m := opMetric(name, n, func(int) {
			k, _ := log.Submit("echo", "", "tenant0", 0, 4, 2, raw.Bytes())
			if launch {
				_ = log.Launch(k, 1)
			}
			_ = log.Terminal(k, wal.OutcomeDone, "")
		})
		if err := log.Close(); err != nil {
			return metric{}, 0, err
		}
		return m, dirBytes(dir), nil
	}
	walNs, _, err := walOps("wal.submit_ns", wal.Options{}, ops, false)
	if err != nil {
		return nil, err
	}
	walTasks := scaleOps(walSizedTasks, scale)
	_, walSize, err := walOps("", wal.Options{CompactEvery: -1}, walTasks, true)
	if err != nil {
		return nil, err
	}
	ms = append(ms, walNs, total("wal.bytes_per_task", "B", float64(walSize)/float64(walTasks)))

	// health: classifying a failure, and a breaker's acquire + record.
	failure := fmt.Errorf("attempt: %w", errors.New("app raised"))
	ms = append(ms, opMetric("health.classify_ns", ops, func(int) {
		_ = health.Classify(failure)
	}))
	br := health.NewBreaker(health.BreakerConfig{})
	ms = append(ms, opMetric("health.breaker_ns", ops, func(int) {
		br.Acquire()
		br.Record(true)
	}))

	// monitor: the shipped in-memory store. It is on no workload's path
	// (tp_planes uses a counting sink); this is what attaching it would cost.
	events := scaleOps(storeEvents, scale)
	store := monitor.NewStore()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	ev := monitor.Event{Kind: monitor.KindTaskState, At: time.Now(), App: "echo", From: "pending", To: "launched"}
	emit := opMetric("monitor.store_emit_ns", events, func(i int) {
		ev.TaskID = int64(i)
		store.Emit(ev)
	})
	runtime.GC()
	runtime.ReadMemStats(&m1)
	ms = append(ms, emit, total("monitor.store_bytes_per_event", "B", float64(m1.HeapAlloc-m0.HeapAlloc)/float64(events)))
	runtime.KeepAlive(store)
	store = nil
	runtime.GC()

	// executors without a DFK: what is left of end-to-end minus these is the
	// DFK's share.
	for _, kind := range []string{"threadpool", "htex"} {
		raws, err := rawExecutor(kind, scale)
		if err != nil {
			return nil, err
		}
		ms = append(ms, raws...)
	}

	// mq: one dealer-router-dealer echo over the zero-latency simnet; a task's
	// round trip through htex crosses four such hops.
	echo, err := mqEcho(scaleOps(20_000, scale))
	if err != nil {
		return nil, err
	}
	return append(ms, echo), nil
}

// perItem rescales a metric timed per batch of n items to one item.
func perItem(m metric, n float64) metric {
	m.Value /= n
	m.Q1, m.Median, m.Q3 = m.Value, m.Value, m.Value
	*m.AllocsPerOp /= n
	m.N *= int(n)
	return m
}

// rawExecutor drives an executor's Submit directly, in the workload's
// deployment shape: sequential round trips, then batches.
func rawExecutor(kind string, scale float64) ([]metric, error) {
	reg := serialize.NewRegistry()
	if err := reg.Register("echo", echoFn); err != nil {
		return nil, err
	}
	var ex batchExecutor
	trips, batchN, batches := scaleOps(20_000, scale), scaleOps(10_000, scale), 10
	rttName, rttUnit, rttDiv := "threadpool.raw_rtt_ns", "ns", 1.0
	if kind == "htex" {
		ex = newHTEX(reg, simnet.NewNetwork(0), 1)
		trips, batchN, batches = max(int(100*scale), 10), max(int(200*scale), 10), 5
		rttName, rttUnit, rttDiv = "htex.raw_rtt_us", "us", 1e3
	} else {
		ex = threadpool.New("threadpool", poolWorkers, reg)
	}
	if err := ex.Start(); err != nil {
		return nil, err
	}
	defer ex.Shutdown()
	id := int64(0)
	submit := func(i int) *future.Future {
		id++
		return ex.Submit(serialize.TaskMsg{ID: id, App: "echo", Args: []any{i}})
	}
	trip := func(i int) error {
		v, err := submit(i).Result()
		if got, ok := toInt(v); err != nil || !ok || got != i {
			return fmt.Errorf("%s raw round trip %d: got %v, %v", kind, i, v, err)
		}
		return nil
	}
	for i := 0; i < 10; i++ { // the first tasks wait for the manager to register
		if err := trip(i); err != nil {
			return nil, err
		}
	}
	rtts := make([]float64, trips)
	for i := range rtts {
		t0 := time.Now()
		if err := trip(i); err != nil {
			return nil, err
		}
		rtts[i] = float64(time.Since(t0)) / rttDiv
	}
	rates := make([]float64, batches)
	futs := make([]*future.Future, batchN)
	for b := range rates {
		t0 := time.Now()
		for i := range futs {
			futs[i] = submit(i)
		}
		for i, f := range futs {
			if v, err := f.Result(); err != nil || v == nil {
				return nil, fmt.Errorf("%s raw batch task %d: %v, %v", kind, i, v, err)
			}
		}
		rates[b] = float64(batchN) / time.Since(t0).Seconds()
	}
	return []metric{
		medianOf(rttName, rttUnit, rtts),
		medianOf(kind+".raw_tasks_per_s", "1/s", rates),
	}, nil
}

func mqEcho(trips int) (metric, error) {
	net := simnet.NewNetwork(0)
	router, err := mq.NewRouter(net, "")
	if err != nil {
		return metric{}, err
	}
	defer router.Close()
	go func() {
		for del := range router.Incoming() {
			_ = router.SendTo(del.From, del.Msg)
		}
	}()
	dealer, err := mq.DialDealer(net, router.Addr(), "bench")
	if err != nil {
		return metric{}, err
	}
	defer dealer.Close()
	msg := mq.Message{[]byte("PING"), make([]byte, 64)}
	rtts := make([]float64, 0, trips)
	for i := 0; i < trips+100; i++ {
		t0 := time.Now()
		if err := dealer.Send(msg); err != nil {
			return metric{}, err
		}
		if _, err := dealer.Recv(); err != nil {
			return metric{}, err
		}
		if i >= 100 {
			rtts = append(rtts, float64(time.Since(t0))/1e3)
		}
	}
	return medianOf("mq.rtt_us", "us", rtts), nil
}

// writeSpans writes the last traced round's first tasks as spans: name, start,
// end, parent, task. A span's self time is its duration minus its children's.
func writeSpans(path string, r *runner, label string) error {
	type span struct {
		Task   int    `json:"task"`
		Name   string `json:"name"`
		Parent string `json:"parent"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	var spans []span
	n := min(r.tasksPerRound(), 2000)
	for i := 0; i < n; i++ {
		st := &r.tr.stamps[i]
		if st[stSubmit] == 0 || st[stResult] == 0 {
			continue
		}
		add := func(name, parent string, from, to int) {
			if st[from] > 0 && st[to] >= st[from] {
				spans = append(spans, span{i, name, parent, st[from], st[to]})
			}
		}
		add("task", "", stSubmit, stResult)
		if st[stExecEnter] == 0 {
			add("dfk.memo_hit", "task", stSubmit, stSubmitted)
			continue
		}
		add("dfk.admit_to_launch", "task", stSubmit, stExecEnter)
		add(label, "task", stExecEnter, stExecDone)
		add(label+".outbound", label, stExecEnter, stFnStart)
		add("fn", label, stFnStart, stFnEnd)
		add(label+".return", label, stFnEnd, stExecDone)
		add("dfk.settle", "task", stExecDone, stAppDone)
		if st[stBlocked] == 1 {
			add("future.wake", "task", stAppDone, stResult)
		} else {
			add("script.elsewhere", "task", stAppDone, stResult)
		}
	}
	return writeJSON(path, map[string]any{
		"workload": r.def.name,
		"clock":    "ns since the tracer started",
		"note":     "self time of a span = its duration minus the part its child spans cover; dfk.admit_to_launch of a tp_dag dependent includes waiting for its parents",
		"spans":    spans,
	})
}

// dirBytes is the total size of the files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			n += fi.Size()
		}
		return nil
	})
	return n
}
