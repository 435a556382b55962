package htex

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/future"
	"repro/internal/provider"
	"repro/internal/sched"
	"repro/internal/serialize"
	"repro/internal/simnet"
)

// TestShardRestoreRejoinsPlacement drives the full death-and-respawn cycle at
// the executor boundary: kill one shard, restore it, and prove placement
// takes it back — ShardCounts counts it alive again, the manager-less
// restored broker is capacity-vetoed (tasks spill, nothing stalls), and once
// a manager connects to the respawned interchange the shard serves traffic
// end to end.
func TestShardRestoreRejoinsPlacement(t *testing.T) {
	e := newShardedHTEX(t, 3, 6, 1)
	waitCond(t, "every shard has a manager", func() bool {
		for _, n := range managersPerShard(e) {
			if n == 0 {
				return false
			}
		}
		return true
	})

	const victim = 1
	if !e.KillShard(victim) {
		t.Fatalf("KillShard(%d) refused", victim)
	}
	if alive, total := e.ShardCounts(); alive != 2 || total != 3 {
		t.Fatalf("ShardCounts = %d/%d after kill, want 2/3", alive, total)
	}

	if err := e.RestoreShard(-1); err == nil {
		t.Fatal("RestoreShard(-1) accepted an out-of-range index")
	}
	if err := e.RestoreShard(99); err == nil {
		t.Fatal("RestoreShard(99) accepted an out-of-range index")
	}
	if err := e.RestoreShard(victim); err != nil {
		t.Fatalf("RestoreShard(%d): %v", victim, err)
	}
	// Restoring an alive shard is a no-op, not an error: callers can retry
	// idempotently from a supervision loop.
	if err := e.RestoreShard(victim); err != nil {
		t.Fatalf("RestoreShard on alive shard: %v", err)
	}
	if alive, total := e.ShardCounts(); alive != 3 || total != 3 {
		t.Fatalf("ShardCounts = %d/%d after restore, want 3/3", alive, total)
	}
	if n := e.Shard(victim).ManagerCount(); n != 0 {
		t.Fatalf("restored broker has %d managers, want 0 (it starts empty)", n)
	}

	// Manager-less restored shard: the capacity veto must spill its keys to
	// their next-ranked shards, so every task still completes.
	futs := make([]*future.Future, 0, 30)
	for i := 0; i < 30; i++ {
		futs = append(futs, e.Submit(serialize.TaskMsg{
			ID: int64(1000 + i), App: "echo", Args: []any{i},
			Tenant: fmt.Sprintf("t%d", i%6),
		}))
	}
	if err := future.Wait(futs...); err != nil {
		t.Fatalf("submit against manager-less restored shard: %v", err)
	}

	// Attach a manager straight to the respawned interchange — exactly what
	// the next ScaleOut's bounded-hash placement does, minus the hash
	// nondeterminism a unit test can't wait on.
	mgr, err := StartManager(e.cfg.Transport, e.Shard(victim).Addr(), "mgr-restored", e.cfg.Registry, e.cfg.Manager)
	if err != nil {
		t.Fatalf("StartManager on restored shard: %v", err)
	}
	t.Cleanup(mgr.Drain)
	waitCond(t, "manager registered on restored shard", func() bool {
		return e.Shard(victim).ManagerCount() == 1
	})

	// With capacity back, the restored shard must carry live traffic again.
	futs = futs[:0]
	for i := 0; i < 60; i++ {
		futs = append(futs, e.Submit(serialize.TaskMsg{
			ID: int64(2000 + i), App: "sleep", Args: []any{50},
			Tenant: fmt.Sprintf("t%d", i%6),
		}))
	}
	waitCond(t, "restored shard holds inflight tasks", func() bool {
		return e.InflightByShard()[victim] > 0
	})
	if err := future.Wait(futs...); err != nil {
		t.Fatalf("post-rejoin traffic: %v", err)
	}
	if e.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after drain", e.Outstanding())
	}
}

// TestRestoreShardAfterShutdown: a stopped executor refuses to respawn
// shards instead of leaking a fresh interchange nobody will close.
func TestRestoreShardAfterShutdown(t *testing.T) {
	e := newShardedHTEX(t, 2, 2, 1)
	if !e.KillShard(0) {
		t.Fatal("KillShard refused")
	}
	if err := e.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := e.RestoreShard(0); err == nil {
		t.Fatal("RestoreShard accepted a stopped executor")
	}
}

// TestShardRestoreForgetsDeadManagers: a shard's managers die with it, so
// bounded-load placement must stop counting them. After a restore, the next
// ScaleOut refills the respawned shard to an even share instead of treating
// it as still holding its dead fleet.
func TestShardRestoreForgetsDeadManagers(t *testing.T) {
	e := newShardedHTEX(t, 3, 6, 1)
	waitCond(t, "2 managers per shard", func() bool {
		return slices.Equal(managersPerShard(e), []int{2, 2, 2})
	})
	e.KillShard(1)
	if err := e.RestoreShard(1); err != nil {
		t.Fatal(err)
	}
	if err := e.ScaleOut(1); err != nil { // 6 more managers
		t.Fatal(err)
	}
	// The 4 survivors plus the 6 new managers.
	waitCond(t, "10 managers registered", func() bool {
		total := 0
		for _, n := range managersPerShard(e) {
			total += n
		}
		return total == 10
	})
	got := managersPerShard(e)
	if slices.Max(got)-slices.Min(got) > 1 {
		t.Fatalf("managers per shard = %v after kill, restore and scale-out; want within one of even", got)
	}
}

// TestHeartbeatCrossCheckWithPayloadFactory pins the satellite bugfix: the
// manager-period vs interchange-threshold validation used to be skipped for
// configs with a custom PayloadFactory, silently deploying pools whose
// managers would be declared dead while healthy. The cross-check now applies
// unconditionally.
func TestHeartbeatCrossCheckWithPayloadFactory(t *testing.T) {
	e := New(Config{
		Label:     "htex-hbcheck",
		Transport: simnet.NewNetwork(0),
		Registry:  testRegistry(t),
		Provider:  provider.NewLocal(provider.Config{NodesPerBlock: 1}),
		PayloadFactory: func(addr string, node provider.Node) (func(), error) {
			return func() {}, nil
		},
		Manager: ManagerConfig{Workers: 1, HeartbeatPeriod: 500 * time.Millisecond},
		Interchange: InterchangeConfig{
			HeartbeatThreshold: 250 * time.Millisecond,
		},
	})
	err := e.Start()
	if err == nil {
		_ = e.Shutdown()
		t.Fatal("Start accepted HeartbeatPeriod >= HeartbeatThreshold under a custom PayloadFactory")
	}
	if !strings.Contains(err.Error(), "HeartbeatThreshold") {
		t.Fatalf("err = %v, want the heartbeat cross-check rejection", err)
	}
}

// argsDigest is the content digest a one-argument task with arg carries
// (Payload.ArgsHash), the form HoldsDigest takes.
func argsDigest(t *testing.T, arg any) string {
	t.Helper()
	p, err := serialize.EncodeArgs([]any{arg}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	return p.ArgsHash()
}

// TestDigestHoldings: a returned task's content digest is held by the
// manager that returned it, and the holding is visible through every layer —
// interchange record, the executor's shard union, and the scheduler's LoadOf
// probe — as soon as the result is back.
func TestDigestHoldings(t *testing.T) {
	e := newHTEX(t, 1, 1, nil)

	digest := argsDigest(t, "warm-input")

	if e.HoldsDigest(digest) {
		t.Fatal("digest held before any execution")
	}
	v, err := e.Submit(serialize.TaskMsg{ID: 1, App: "echo", Args: []any{"warm-input"}}).Result()
	if err != nil || v != "warm-input" {
		t.Fatalf("submit: %v, %v", v, err)
	}
	if !e.HoldsDigest(digest) {
		t.Fatal("digest not held once its result returned")
	}
	l := sched.LoadOf(e)
	if l.HasDigest == nil || !l.HasDigest(digest) {
		t.Fatal("sched.LoadOf must surface the digest probe")
	}
	if e.HoldsDigest("ffffffffffffffff") {
		t.Fatal("HoldsDigest matched a digest nobody executed")
	}
}

// TestDigestRecordAllocationFree: a manager's warm-digest record evicts
// through a fixed ring, so once it holds maxDigests entries a manager
// returning 10 × maxDigests further distinct digests allocates nothing for
// it, and the record holds exactly the newest maxDigests of them.
func TestDigestRecordAllocationFree(t *testing.T) {
	m := &managerState{digests: make(map[uint64]struct{})}
	next := uint64(0)
	note := func(n int) {
		for range n {
			next++
			m.noteDigest(next * 0x9E3779B97F4A7C15) // distinct, spread over the map
		}
	}
	note(2 * maxDigests) // warm-up: the ring fills, the map reaches its size
	if n := testing.AllocsPerRun(5, func() { note(10 * maxDigests) }); n != 0 {
		t.Fatalf("%.1f allocations per %d fresh digests, want 0", n, 10*maxDigests)
	}
	if len(m.digests) != maxDigests {
		t.Fatalf("record holds %d digests, want %d", len(m.digests), maxDigests)
	}
	for d := next - maxDigests + 1; d <= next; d++ {
		if _, ok := m.digests[d*0x9E3779B97F4A7C15]; !ok {
			t.Fatalf("digest %d of the newest %d is not held", d, maxDigests)
		}
	}
}

// TestLocalityDispatchFollowsHoldings: with InterchangeConfig.Locality on, a
// repeat of a returned task is dispatched to the manager that returned it,
// whichever manager the random pick chose. The heartbeat clocks run an hour,
// so no HB is sent during the test: the holding needs none. A result that
// carries an app error warms its manager too — the interchange reads only the
// id column of a result batch.
func TestLocalityDispatchFollowsHoldings(t *testing.T) {
	reg := testRegistry(t)
	tr := simnet.NewNetwork(0)
	mgrCfg := ManagerConfig{Workers: 1, HeartbeatPeriod: time.Hour}
	var (
		mu   sync.Mutex
		mgrs []*Manager
	)
	e := New(Config{
		Label:      "loc",
		Transport:  tr,
		Registry:   reg,
		Provider:   provider.NewLocal(provider.Config{NodesPerBlock: 2}),
		InitBlocks: 1,
		Manager:    mgrCfg,
		Interchange: InterchangeConfig{
			Seed: 1, Locality: true,
			HeartbeatPeriod: time.Hour, HeartbeatThreshold: 2 * time.Hour,
		},
		PayloadFactory: func(addr string, node provider.Node) (func(), error) {
			m, err := StartManager(tr, addr, fmt.Sprintf("loc-mgr-%d", node.ID), reg, mgrCfg)
			if err != nil {
				return nil, err
			}
			mu.Lock()
			mgrs = append(mgrs, m)
			mu.Unlock()
			return m.Stop, nil
		},
	})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Shutdown() })
	waitCond(t, "2 managers", func() bool { return e.Interchange().ManagerCount() == 2 })
	mu.Lock()
	pool := mgrs
	mu.Unlock()

	executed := func() []int64 {
		out := make([]int64, len(pool))
		for i, m := range pool {
			out[i] = m.Executed()
		}
		return out
	}
	// run submits one task, waits for it, and returns the index of the
	// manager that ran it.
	id := int64(0)
	run := func(app, arg string) int {
		t.Helper()
		before := executed()
		id++
		_, _ = e.Submit(serialize.TaskMsg{ID: id, App: app, Args: []any{arg}}).Result()
		ran := -1
		for i, n := range executed() {
			if n != before[i] {
				ran = i
			}
		}
		if ran < 0 {
			t.Fatalf("task %d (%s) ran on no manager", id, app)
		}
		return ran
	}

	// 20 repeats each: a pick blind to holdings would land them all on the
	// holder with probability 2^-20.
	for _, c := range []struct{ app, arg string }{{"echo", "warm-a"}, {"fail", "warm-b"}} {
		holder := run(c.app, c.arg)
		digest := argsDigest(t, c.arg)
		if !e.HoldsDigest(digest) {
			t.Fatalf("%s(%q): digest not held once its result returned", c.app, c.arg)
		}
		for r := 0; r < 20; r++ {
			if got := run(c.app, c.arg); got != holder {
				t.Fatalf("%s(%q) repeat %d ran on manager %d, want holder %d", c.app, c.arg, r, got, holder)
			}
		}
	}
}
