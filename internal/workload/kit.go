package workload

import (
	"fmt"
	"time"

	"repro/internal/dfk"
	"repro/internal/executor"
	"repro/internal/executor/htex"
	"repro/internal/executor/threadpool"
	"repro/internal/future"
	"repro/internal/monitor"
	"repro/internal/provider"
	"repro/internal/serialize"
	"repro/internal/simnet"
)

// This file is the scenario kit: the fixture, the watchdog wait, the
// wedged-run teardown and the invariant checkers the recovery scenarios
// (chaos, health, shard, locality, wal) share. A checker reads what the
// system itself recorded — futures, the monitoring stream, the executors'
// own gauges — and appends to the caller's violation list; it never samples
// state mid-flight and then acts on the sample.

// setDefault replaces a non-positive config value with its default.
func setDefault[T int | int64 | float64 | time.Duration](v *T, def T) {
	if *v <= 0 {
		*v = def
	}
}

// waitUntil polls cond every millisecond until it holds or the deadline
// passes, and reports whether it held.
func waitUntil(deadline time.Time, cond func() bool) bool {
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// startSampler calls sample every period on its own goroutine until the
// returned stop is called; stop returns once the goroutine has exited, so
// whatever sample wrote is safe to read afterwards.
func startSampler(period time.Duration, sample func()) (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				sample()
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// violations is a scenario's invariant-violation list (the Violations field
// of its result); empty means every guarantee held.
type violations []string

func (v *violations) add(format string, args ...any) {
	*v = append(*v, fmt.Sprintf(format, args...))
}

// poolSpec shapes one HTEX pool over the in-memory network: a single block
// of Managers managers, Workers worker goroutines each, behind Shards
// interchange shards.
type poolSpec struct {
	Label              string // default "htex"
	Seed               int64  // interchange manager selection
	Shards             int
	Managers           int
	Workers            int
	Prefetch           int  // per-manager prefetch (0 = Workers)
	Locality           bool // locality dispatch to the managers holding a digest
	HeartbeatPeriod    time.Duration
	HeartbeatThreshold time.Duration
}

// newPool builds the pool. The default heartbeat clocks (50 ms period,
// 300 ms loss threshold) make a killed manager surface as LOST well inside
// any scenario's attempt timeout.
func newPool(reg *serialize.Registry, s poolSpec) *htex.Executor {
	setDefault(&s.Prefetch, s.Workers)
	setDefault(&s.HeartbeatPeriod, 50*time.Millisecond)
	setDefault(&s.HeartbeatThreshold, 300*time.Millisecond)
	return htex.New(htex.Config{
		Label:      s.Label,
		Shards:     s.Shards,
		Transport:  simnet.NewNetwork(0),
		Registry:   reg,
		Provider:   provider.NewLocal(provider.Config{NodesPerBlock: s.Managers}),
		InitBlocks: 1,
		Manager:    htex.ManagerConfig{Workers: s.Workers, Prefetch: s.Prefetch},
		Interchange: htex.InterchangeConfig{
			Seed:               s.Seed,
			Locality:           s.Locality,
			HeartbeatPeriod:    s.HeartbeatPeriod,
			HeartbeatThreshold: s.HeartbeatThreshold,
		},
	})
}

// fixture is one scenario deployment: an optional threadpool ("pool"), one
// HTEX pool, and a DFK over both with a monitor store attached. Scenarios run
// with record pooling on, so terminal records are recycled mid-run; per-task
// invariants therefore read the store, never the records.
type fixture struct {
	reg   *serialize.Registry
	pool  *threadpool.Executor // nil when the scenario runs HTEX only
	hx    *htex.Executor
	store *monitor.Store
	d     *dfk.DFK
}

// newFixture builds the deployment. dcfg carries the scenario's own DFK
// settings (retry budget, timeouts, planes); the fixture supplies the
// registry, the executors, the monitor, and the seed (the pool's).
func newFixture(poolWorkers int, hx poolSpec, dcfg dfk.Config) (*fixture, error) {
	fx := &fixture{reg: serialize.NewRegistry(), store: monitor.NewStore()}
	fx.hx = newPool(fx.reg, hx)
	dcfg.Executors = []executor.Executor{fx.hx}
	if poolWorkers > 0 {
		fx.pool = threadpool.NewWithDepth("pool", poolWorkers, 64, fx.reg)
		dcfg.Executors = []executor.Executor{fx.pool, fx.hx}
	}
	dcfg.Registry, dcfg.Monitor, dcfg.Seed = fx.reg, fx.store, hx.Seed
	var err error
	fx.d, err = dfk.New(dcfg)
	return fx, err
}

// app registers a scenario app; on error the fixture is shut down, so the
// caller just returns.
func (fx *fixture) app(name string, fn serialize.Fn) (*dfk.App, error) {
	a, err := fx.d.PythonApp(name, fn)
	if err != nil {
		_ = fx.d.Shutdown()
	}
	return a, err
}

// awaitAll waits for every future to settle or the watchdog deadline to
// pass, whichever is first, and returns how many were still unsettled at the
// deadline — a wedged task must surface as a violation, never a silent hang.
func awaitAll(futs []*future.Future, deadline time.Time) int {
	expired := time.NewTimer(time.Until(deadline))
	defer expired.Stop()
	for i, f := range futs {
		select {
		case <-f.DoneChan():
		case <-expired.C:
			unsettled := 0
			for _, f := range futs[i:] {
				if !f.Done() {
					unsettled++
				}
			}
			return unsettled
		}
	}
	return 0
}

// teardownWedged stops a run whose watchdog expired. A graceful Shutdown
// would block on the stuck tasks, but leaving the wedged DFK running would
// leak its traffic into the process-global fault points — polluting the next
// seed's schedule in a multi-seed run. Shutting the executors fails all
// pending work fast, which drains the DFK's retry machinery; the wait is
// bounded in case even that wedges.
func (fx *fixture) teardownWedged(v *violations) {
	if fx.pool != nil {
		_ = fx.pool.Shutdown()
	}
	_ = fx.hx.Shutdown()
	done := make(chan struct{})
	go func() {
		_ = fx.d.Shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		v.add("teardown of the wedged run did not complete; later seeds in this process may see foreign fault-point traffic")
	}
}

// checkValues is the goodput invariant: every future succeeded and carries
// oracle(arg), an int, where arg is args[k] (k itself when args is nil). It
// returns how many futures failed.
func checkValues(v *violations, futs []*future.Future, args []int, oracle func(arg int) int) (failed int) {
	for k, f := range futs {
		arg := k
		if args != nil {
			arg = args[k]
		}
		got, err := f.Result()
		if err != nil {
			failed++
			v.add("task arg %d lost: %v", arg, err)
		} else if want := oracle(arg); got != want {
			v.add("task arg %d: value %v (%T), want %d (int)", arg, got, got, want)
		}
	}
	return failed
}

// launchStats summarizes the per-task launch counts checkExactlyOnce read.
type launchStats struct {
	Retried       int // tasks launched more than once
	ExtraLaunches int // launches beyond one per task
	MaxLaunches   int // largest per-task launch count
}

// checkExactlyOnce reconstructs per-task delivery from the monitoring stream:
// every task the store saw reached a terminal state exactly once (a result
// is never delivered twice, no task is left behind), and its launches — each
// one attempt — stay within budget+1. prior holds launches already charged
// to a task before this store began (a previous lifetime); nil means none.
func checkExactlyOnce(v *violations, store *monitor.Store, budget int, prior map[int64]int) launchStats {
	launches := make(map[int64]int)
	terminals := make(map[int64]int)
	finals := make(map[int64]string)
	for _, e := range store.Events(monitor.KindTaskState) {
		switch e.To {
		case "launched":
			launches[e.TaskID]++
		case "done", "failed", "memoized":
			terminals[e.TaskID]++
		}
		finals[e.TaskID] = e.To
	}
	var st launchStats
	for id, final := range finals {
		if n := terminals[id]; n != 1 {
			v.add("task %d reached a terminal state %d times (final %q)", id, n, final)
		}
		n := launches[id]
		if total := prior[id] + n; total > budget+1 {
			v.add("task %d launched %d times (%d before this lifetime), budget %d+1", id, total, prior[id], budget)
		}
		if n > 1 {
			st.Retried++
			st.ExtraLaunches += n - 1
		}
		st.MaxLaunches = max(st.MaxLaunches, n)
	}
	return st
}

// checkBoundedReexec is the blast-radius invariant: a fault re-executes at
// most the work the system itself reported lost to it. lost must come from
// the system's own account at the fault (LostError counts, the replayed WAL
// frontier) — a gauge polled before the fault undercounts whatever the
// dispatch pipeline was still routing.
func checkBoundedReexec(v *violations, reexecuted, lost int, fault string) {
	if reexecuted > lost {
		v.add("%d tasks re-executed but %s lost only %d — work outside the fault's blast radius was requeued",
			reexecuted, fault, lost)
	}
}

// checkDrained is the no-leak invariant, sampled before teardown: every live
// interchange queue and manager outstanding set, both executors' pending
// maps, and the task graph drain to zero. Ghost attempts (timed out at the
// DFK, retried elsewhere, but still crossing the htex wire) may lag the
// futures briefly, so this is an eventually-drains check with a 15 s grace,
// not an instantaneous sample. deadShard names a killed shard to skip (its
// broker died holding its set; that set is the retry plane's), -1 for none.
func (fx *fixture) checkDrained(v *violations, deadShard int) {
	leaks := func() (out []string) {
		for i := 0; i < fx.hx.ShardCount(); i++ {
			if i == deadShard {
				continue
			}
			ix := fx.hx.Shard(i)
			if qd := ix.QueueDepth(); qd != 0 {
				out = append(out, fmt.Sprintf("interchange shard %d queue holds %d tasks after drain", i, qd))
			}
			for mgr, n := range ix.OutstandingByManager() {
				if n != 0 {
					out = append(out, fmt.Sprintf("manager %s still holds %d tasks after drain", mgr, n))
				}
			}
		}
		if fx.pool != nil {
			if n := fx.pool.Outstanding(); n != 0 {
				out = append(out, fmt.Sprintf("threadpool still holds %d tasks after drain", n))
			}
		}
		// The client's pending map: a wire-lost ghost attempt (dropped frame +
		// timeout retry) must not leak there.
		if n := fx.hx.Outstanding(); n != 0 {
			out = append(out, fmt.Sprintf("htex client still tracks %d tasks after drain — ghost attempts leaked", n))
		}
		if n := fx.d.Outstanding(); n != 0 {
			out = append(out, fmt.Sprintf("graph outstanding = %d after drain", n))
		}
		return out
	}
	quiesce := time.Now().Add(15 * time.Second)
	left := leaks()
	for len(left) > 0 && time.Now().Before(quiesce) {
		time.Sleep(2 * time.Millisecond)
		left = leaks()
	}
	*v = append(*v, left...)
}
