package exex

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/executor"
	"repro/internal/executor/htex"
	"repro/internal/future"
	"repro/internal/mq"
	"repro/internal/provider"
	"repro/internal/serialize"
	"repro/internal/simnet"
)

func testRegistry(t *testing.T) *serialize.Registry {
	t.Helper()
	reg := serialize.NewRegistry()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	// A body still sleeping when the test ends (its manager was stopped under
	// it) returns then instead of outliving the test.
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	must(reg.Register("echo", func(args []any, _ map[string]any) (any, error) { return args[0], nil }))
	must(reg.Register("sleep", func(args []any, _ map[string]any) (any, error) {
		select {
		case <-time.After(time.Duration(args[0].(int)) * time.Millisecond):
		case <-release:
		}
		return "slept", nil
	}))
	must(reg.Register("fail", func([]any, map[string]any) (any, error) { return nil, errors.New("boom") }))
	return reg
}

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timeout: %s", what)
}

// newEXEX builds an executor with `pools` MPI pools of `ranks` ranks each.
func newEXEX(t *testing.T, pools, ranks int, tune func(*Config)) *Executor {
	t.Helper()
	cfg := Config{
		Label:       "exex-test",
		Transport:   simnet.NewNetwork(0),
		Registry:    testRegistry(t),
		Provider:    provider.NewLocal(provider.Config{NodesPerBlock: pools}),
		InitBlocks:  1,
		Pool:        PoolConfig{Ranks: ranks, HeartbeatPeriod: 50 * time.Millisecond},
		Interchange: htexInterchangeCfg(),
	}
	if tune != nil {
		tune(&cfg)
	}
	e := New(cfg)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Shutdown() })
	waitCond(t, "pools registered", func() bool { return e.Interchange().ManagerCount() == pools })
	return e
}

func TestRoundTripThroughMPIPool(t *testing.T) {
	e := newEXEX(t, 1, 3, nil)
	v, err := e.Submit(serialize.TaskMsg{ID: 1, App: "echo", Args: []any{"extreme"}}).Result()
	if err != nil || v != "extreme" {
		t.Fatalf("result = %v, %v", v, err)
	}
}

func TestHierarchicalDistribution(t *testing.T) {
	e := newEXEX(t, 2, 5, nil) // 2 pools × 4 worker ranks
	const n = 100
	futs := make([]*future.Future, n)
	for i := 0; i < n; i++ {
		futs[i] = e.Submit(serialize.TaskMsg{ID: int64(i), App: "echo", Args: []any{i}})
	}
	for i, f := range futs {
		v, err := f.Result()
		if err != nil || v != i {
			t.Fatalf("task %d: %v %v", i, v, err)
		}
	}
}

func TestWorkerRanksRunInParallel(t *testing.T) {
	e := newEXEX(t, 1, 5, nil) // 4 worker ranks
	start := time.Now()
	var futs []*future.Future
	for i := 0; i < 8; i++ {
		futs = append(futs, e.Submit(serialize.TaskMsg{ID: int64(i), App: "sleep", Args: []any{50}}))
	}
	if err := future.Wait(futs...); err != nil {
		t.Fatal(err)
	}
	// 8×50 ms over 4 ranks ≈ 100 ms; sequential would be 400 ms.
	if elapsed := time.Since(start); elapsed > 350*time.Millisecond {
		t.Fatalf("ranks not parallel: %v", elapsed)
	}
}

func TestAppErrorThroughPool(t *testing.T) {
	e := newEXEX(t, 1, 2, nil)
	_, err := e.Submit(serialize.TaskMsg{ID: 1, App: "fail"}).Result()
	var re *executor.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v", err)
	}
}

func TestRankFailureKillsWholePool(t *testing.T) {
	// §4.3.2: "job and node failures can result in the loss of the entire
	// MPI application". Killing one rank must fail in-flight tasks of the
	// whole pool via heartbeat expiry.
	tr := simnet.NewNetwork(0)
	reg := testRegistry(t)
	cfg := Config{
		Label:       "exex-fault",
		Transport:   tr,
		Registry:    reg,
		Provider:    provider.NewLocal(provider.Config{NodesPerBlock: 1}),
		Pool:        PoolConfig{Ranks: 3, HeartbeatPeriod: 30 * time.Millisecond},
		Interchange: htexInterchangeCfg(),
	}
	e := New(cfg)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown()

	pool, err := StartPool(tr, e.Interchange().Addr(), "pool-victim", reg, cfg.Pool)
	if err != nil {
		t.Fatal(err)
	}
	waitCond(t, "pool registered", func() bool { return e.Interchange().ManagerCount() == 1 })

	fut := e.Submit(serialize.TaskMsg{ID: 5, App: "sleep", Args: []any{10000}})
	waitCond(t, "task in flight on pool", func() bool {
		return e.Interchange().OutstandingByManager()["pool-victim"] == 1
	})

	pool.comm.abort() // one rank dies -> whole communicator aborts

	_, err = fut.Result()
	var lost *executor.LostError
	if !errors.As(err, &lost) {
		t.Fatalf("err = %v, want LostError", err)
	}
	if !pool.comm.isAborted() {
		t.Fatal("communicator survived rank failure")
	}
	waitCond(t, "pool deregistered", func() bool { return e.Interchange().ManagerCount() == 0 })
}

func TestSmallPoolsIsolateFailures(t *testing.T) {
	// The recommended mitigation: two pools; killing one leaves the other
	// able to finish work.
	tr := simnet.NewNetwork(0)
	reg := testRegistry(t)
	cfg := Config{
		Label: "exex-isolate", Transport: tr, Registry: reg,
		Provider:    provider.NewLocal(provider.Config{NodesPerBlock: 1}),
		Pool:        PoolConfig{Ranks: 2, HeartbeatPeriod: 30 * time.Millisecond},
		Interchange: htexInterchangeCfg(),
	}
	e := New(cfg)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown()
	dead, err := StartPool(tr, e.Interchange().Addr(), "pool-a", reg, cfg.Pool)
	if err != nil {
		t.Fatal(err)
	}
	alive, err := StartPool(tr, e.Interchange().Addr(), "pool-b", reg, cfg.Pool)
	if err != nil {
		t.Fatal(err)
	}
	defer alive.Stop()
	waitCond(t, "both pools", func() bool { return e.Interchange().ManagerCount() == 2 })

	dead.comm.abort()
	waitCond(t, "one pool left", func() bool { return e.Interchange().ManagerCount() == 1 })

	v, err := e.Submit(serialize.TaskMsg{ID: 9, App: "echo", Args: []any{"survived"}}).Result()
	if err != nil || v != "survived" {
		t.Fatalf("surviving pool: %v, %v", v, err)
	}
	if alive.Executed() == 0 {
		t.Fatal("surviving pool executed nothing")
	}
}

func TestPoolExecutedCounter(t *testing.T) {
	e := newEXEX(t, 1, 3, nil)
	var futs []*future.Future
	for i := 0; i < 10; i++ {
		futs = append(futs, e.Submit(serialize.TaskMsg{ID: int64(i), App: "echo", Args: []any{i}}))
	}
	if err := future.Wait(futs...); err != nil {
		t.Fatal(err)
	}
}

func TestScaleOutAddsPools(t *testing.T) {
	e := newEXEX(t, 1, 2, nil)
	if err := e.ScaleOut(2); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "3 pools", func() bool { return e.Interchange().ManagerCount() == 3 })
	if err := e.ScaleIn(2); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "1 pool", func() bool { return e.Interchange().ManagerCount() == 1 })
}

func htexInterchangeCfg() htex.InterchangeConfig {
	return htex.InterchangeConfig{
		Seed:               1,
		HeartbeatPeriod:    30 * time.Millisecond,
		HeartbeatThreshold: 150 * time.Millisecond,
	}
}

// TestStreamCorruptionRecovery corrupts both of the pool's manager-protocol
// stream legs — the interchange's TASKS stream in, the pool's RESULTS
// stream out — and asserts the NACK resync protocol recovers exactly as it
// does for htex managers: every task completes, nothing wedges. (Before the
// pool implemented the NACK contract, one corrupted frame on either leg
// permanently wedged the pool's stream.)
func TestStreamCorruptionRecovery(t *testing.T) {
	inj := chaos.New(29, chaos.Plan{
		{Point: chaos.PointIxTasks, Act: chaos.ActCorrupt, Prob: 0.3},
		{Point: chaos.PointMgrResults, Act: chaos.ActCorrupt, Prob: 0.3},
	})
	restore := chaos.Enable(inj)
	defer restore()

	e := newEXEX(t, 1, 3, nil)
	const n = 40
	futs := make([]*future.Future, n)
	for i := 0; i < n; i++ {
		futs[i] = e.Submit(serialize.TaskMsg{ID: int64(i), App: "echo", Args: []any{i}})
	}
	deadline := time.Now().Add(30 * time.Second)
	for i, f := range futs {
		rem := time.Until(deadline)
		if rem <= 0 {
			rem = time.Millisecond
		}
		v, err := f.ResultTimeout(rem)
		if err != nil {
			t.Fatalf("task %d stuck after stream corruption: %v", i, err)
		}
		if v != i {
			t.Fatalf("task %d = %v", i, v)
		}
	}
	if inj.Fires(chaos.PointIxTasks)+inj.Fires(chaos.PointMgrResults) == 0 {
		t.Fatal("no corruption fired")
	}
	waitCond(t, "interchange drained", func() bool {
		if e.Interchange().QueueDepth() != 0 {
			return false
		}
		for _, held := range e.Interchange().OutstandingByManager() {
			if held != 0 {
				return false
			}
		}
		return true
	})
}

// bareEXEX starts an executor with no provider blocks, so a test can attach
// pools by hand (StartPool) and keep a handle on them.
func bareEXEX(t *testing.T, label string, pool PoolConfig) (*Executor, Config) {
	t.Helper()
	cfg := Config{
		Label: label, Transport: simnet.NewNetwork(0), Registry: testRegistry(t),
		Provider:    provider.NewLocal(provider.Config{NodesPerBlock: 1}),
		Pool:        pool,
		Interchange: htexInterchangeCfg(),
	}
	e := New(cfg)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Shutdown() })
	return e, cfg
}

// poolExited reports whether rank 0 and the MPI job are both gone.
func poolExited(t *testing.T, p *Pool) {
	t.Helper()
	exited := make(chan struct{})
	go func() { p.Wait(); close(exited) }()
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		t.Fatal("pool manager still running")
	}
	waitCond(t, "communicator aborted", p.comm.isAborted)
}

// TestScaleInDrainsRunningWork: scaling a busy pool in must hand its running
// task back to the interchange, not lose it. The pool used to close its
// socket right behind the BYE, so whenever the broker had frames queued ahead
// of the BYE the disconnect overtook it and the task was reported LOST;
// Manager.Drain waits for the interchange to acknowledge the BYE by hanging
// up. The test makes the broker busy on purpose: a chaos delay stalls it in
// one TASKS send while a peer queues frames it will ignore.
func TestScaleInDrainsRunningWork(t *testing.T) {
	restore := chaos.Enable(chaos.New(1, chaos.Plan{
		{Point: chaos.PointIxTasks, Act: chaos.ActDelay, Delay: 100 * time.Millisecond, Prob: 1, After: 1, Max: 1},
	}))
	defer restore()

	var tr simnet.Transport
	e := newEXEX(t, 2, 2, func(c *Config) { // 2 blocks × 1 pool × 1 worker rank
		c.Provider = provider.NewLocal(provider.Config{NodesPerBlock: 1})
		c.InitBlocks = 2
		// Neither side's liveness policing may mistake the stall for a death.
		c.Pool.HeartbeatPeriod = 200 * time.Millisecond
		c.Interchange.HeartbeatThreshold = 5 * time.Second
		tr = c.Transport
	})
	ix := e.Interchange()
	held := func() (n int) {
		for _, h := range ix.OutstandingByManager() {
			n += h
		}
		return n
	}
	futs := []*future.Future{e.Submit(serialize.TaskMsg{ID: 1, App: "sleep", Args: []any{150}})}
	waitCond(t, "first task in flight", func() bool { return held() == 1 })
	// The second task goes to the other pool (capacity 1 each); its TASKS
	// send is the stalled one.
	futs = append(futs, e.Submit(serialize.TaskMsg{ID: 2, App: "sleep", Args: []any{150}}))
	waitCond(t, "a task held by each pool", func() bool { return held() == 2 })

	noise, err := mq.DialDealer(tr, ix.Addr(), "noise")
	if err != nil {
		t.Fatal(err)
	}
	defer noise.Close()
	for i := 0; i < 1000; i++ {
		if err := noise.Send(mq.Message{[]byte("NOISE")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.ScaleIn(1); err != nil {
		t.Fatal(err)
	}
	for i, f := range futs {
		v, err := f.ResultTimeout(10 * time.Second)
		if err != nil || v != "slept" {
			t.Fatalf("task %d after scale-in: %v, %v", i+1, v, err)
		}
	}
	waitCond(t, "one pool left", func() bool { return ix.ManagerCount() == 1 })
}

// The next three tests pin what a pool inherits by being an htex.Manager,
// with the assertions of the corresponding htex manager tests.

// TestCancelStrikesTaskBufferedInPool mirrors htex's
// TestCancelForwardedToManager: a task canceled while it sits in rank 0's
// prefetch buffer never reaches a worker rank.
func TestCancelStrikesTaskBufferedInPool(t *testing.T) {
	e, cfg := bareEXEX(t, "exex-cancel", PoolConfig{Ranks: 2, Prefetch: 2, HeartbeatPeriod: 30 * time.Millisecond})
	release := make(chan struct{})
	if err := cfg.Registry.Register("gate", func([]any, map[string]any) (any, error) {
		<-release
		return "gated", nil
	}); err != nil {
		t.Fatal(err)
	}
	pool, err := StartPool(cfg.Transport, e.Interchange().Addr(), "pool-gate", cfg.Registry, cfg.Pool)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Stop()
	waitCond(t, "pool registered", func() bool { return e.Interchange().ManagerCount() == 1 })

	blocker := e.Submit(serialize.TaskMsg{ID: 1, App: "gate"})
	waitCond(t, "blocker in flight", func() bool {
		return e.Interchange().OutstandingByManager()["pool-gate"] >= 1
	})
	victim := e.Submit(serialize.TaskMsg{ID: 2, App: "echo", Args: []any{"victim"}})
	waitCond(t, "victim prefetched by pool", func() bool {
		return e.Interchange().OutstandingByManager()["pool-gate"] == 2
	})
	if !e.Cancel(2) {
		t.Fatal("Cancel(2) = false")
	}
	if _, err := victim.Result(); !errors.Is(err, future.ErrCanceled) {
		t.Fatalf("victim error = %v, want ErrCanceled", err)
	}
	waitCond(t, "interchange struck the victim", func() bool {
		return e.Interchange().OutstandingByManager()["pool-gate"] == 1
	})
	close(release)
	if v, err := blocker.Result(); err != nil || v != "gated" {
		t.Fatalf("blocker: %v, %v", v, err)
	}
	waitCond(t, "only the blocker executed", func() bool { return pool.Executed() == 1 })
	// The pool is idle and the victim has not run: it never will.
	if v, err := e.Submit(serialize.TaskMsg{ID: 3, App: "echo", Args: []any{"after"}}).Result(); err != nil || v != "after" {
		t.Fatalf("follow-up: %v, %v", v, err)
	}
	if got := pool.Executed(); got != 2 {
		t.Fatalf("pool executed %d tasks, want 2 (blocker + follow-up)", got)
	}
}

// TestPoolExitsWithoutInterchange: "managers, upon losing contact with the
// interchange, exit immediately to avoid resource wastage" holds for pools,
// whether the interchange hangs up or merely goes silent for 5 heartbeat
// periods — and the exit takes the MPI job with it.
func TestPoolExitsWithoutInterchange(t *testing.T) {
	pc := PoolConfig{Ranks: 3, HeartbeatPeriod: 20 * time.Millisecond}
	t.Run("closed", func(t *testing.T) {
		e, cfg := bareEXEX(t, "exex-closed", pc)
		pool, err := StartPool(cfg.Transport, e.Interchange().Addr(), "pool-orphan", cfg.Registry, pc)
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Stop()
		waitCond(t, "pool registered", func() bool { return e.Interchange().ManagerCount() == 1 })
		_ = e.Interchange().Close()
		poolExited(t, pool)
	})
	t.Run("silent", func(t *testing.T) {
		// A router that accepts the pool and never answers a heartbeat.
		tr := simnet.NewNetwork(0)
		mute, err := mq.NewRouter(tr, ":0")
		if err != nil {
			t.Fatal(err)
		}
		defer mute.Close()
		start := time.Now()
		pool, err := StartPool(tr, mute.Addr(), "pool-unheard", testRegistry(t), pc)
		if err != nil {
			t.Fatal(err)
		}
		defer pool.Stop()
		poolExited(t, pool)
		if waited := time.Since(start); waited < 5*pc.HeartbeatPeriod {
			t.Fatalf("pool left after %v, before 5 silent heartbeat periods", waited)
		}
	})
}

// TestChaosKillTakesPoolDown mirrors htex's TestAbruptManagerKillFailsInFlight
// with the kill delivered by the chaos plane: a PointMgrKill rule fires when
// rank 0 dequeues a task, the pool dies without a BYE, and the task comes
// back LOST.
func TestChaosKillTakesPoolDown(t *testing.T) {
	inj := chaos.New(1, chaos.Plan{
		{Point: chaos.PointMgrKill, Act: chaos.ActKill, Prob: 1.0, Max: 1, Match: "pool-victim"},
	})
	restore := chaos.Enable(inj)
	defer restore()

	e, cfg := bareEXEX(t, "exex-kill", PoolConfig{Ranks: 3, HeartbeatPeriod: 30 * time.Millisecond})
	pool, err := StartPool(cfg.Transport, e.Interchange().Addr(), "pool-victim", cfg.Registry, cfg.Pool)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Stop()
	waitCond(t, "pool registered", func() bool { return e.Interchange().ManagerCount() == 1 })

	_, err = e.Submit(serialize.TaskMsg{ID: 7, App: "echo", Args: []any{"doomed"}}).Result()
	var lost *executor.LostError
	if !errors.As(err, &lost) {
		t.Fatalf("err = %v, want LostError", err)
	}
	if lost.Manager != "pool-victim" {
		t.Fatalf("lost manager = %q, want pool-victim", lost.Manager)
	}
	if got := inj.Fires(chaos.PointMgrKill); got != 1 {
		t.Fatalf("kill fired %d times, want 1", got)
	}
	if pool.Executed() != 0 {
		t.Fatal("killed pool executed the task")
	}
	waitCond(t, "pool deregistered", func() bool { return e.Interchange().ManagerCount() == 0 })
	poolExited(t, pool)
}

// TestResultBatchFullThroughPool: rank 0 is an htex.Manager, so a saturated
// pool sends its results when the batch is full, exactly as an HTEX node
// does. PoolConfig has no flush knob, so the test assembles the pool as
// StartPool does but with an hour-long FlushInterval: Ranks 3 and Prefetch 2
// make 4 slots, and only the full-batch rule can move 400 results.
func TestResultBatchFullThroughPool(t *testing.T) {
	e, cfg := bareEXEX(t, "exex-batch", PoolConfig{Ranks: 3, Prefetch: 2, HeartbeatPeriod: 30 * time.Millisecond})
	mc := cfg.Pool.managerConfig()
	mc.FlushInterval = time.Hour
	c, err := newComm(mc.Workers + 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.abort()
	p := &Pool{comm: c, reg: cfg.Registry}
	for r := 1; r <= mc.Workers; r++ {
		go p.workerRank(fmt.Sprintf("pool-batch/rank%d", r), r)
	}
	if p.Manager, err = htex.StartManagerExec(cfg.Transport, e.Interchange().Addr(), "pool-batch", mc, p.runOnRank); err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	waitCond(t, "pool registered", func() bool { return e.Interchange().ManagerCount() == 1 })

	const n = 400
	msgs := make([]serialize.TaskMsg, n)
	for i := range msgs {
		msgs[i] = serialize.TaskMsg{ID: int64(i), App: "echo", Args: []any{i}}
	}
	deadline := time.Now().Add(10 * time.Second)
	for i, f := range e.SubmitBatch(msgs) {
		v, err := f.ResultTimeout(max(time.Until(deadline), time.Millisecond))
		if err != nil || v != i {
			t.Fatalf("task %d: %v, %v", i, v, err)
		}
	}
	waitCond(t, "interchange outstanding drained", func() bool {
		return e.Interchange().OutstandingByManager()["pool-batch"] == 0
	})
}
