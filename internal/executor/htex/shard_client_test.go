package htex

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/executor"
	"repro/internal/future"
	"repro/internal/provider"
	"repro/internal/sched"
	"repro/internal/serialize"
)

// newShardedHTEX builds an executor over shards interchange shards with one
// block of nodes managers (bounded-hash-placed across the shards).
func newShardedHTEX(t *testing.T, shards, nodes, workers int) *Executor {
	t.Helper()
	return newHTEX(t, nodes, workers, func(c *Config) {
		c.Shards = shards
	})
}

// managersPerShard sums registered managers over every shard.
func managersPerShard(e *Executor) []int {
	out := make([]int, e.ShardCount())
	for i := range out {
		out[i] = e.Shard(i).ManagerCount()
	}
	return out
}

func TestShardedRoundTrip(t *testing.T) {
	e := newShardedHTEX(t, 3, 6, 2)
	// Bounded-load placement must leave no shard manager-less: a bare shard
	// could only drain by spilling, and capacity would sit idle.
	waitCond(t, "every shard has a manager", func() bool {
		for _, n := range managersPerShard(e) {
			if n == 0 {
				return false
			}
		}
		return true
	})
	const n = 300
	futs := make([]*future.Future, n)
	for i := 0; i < n; i++ {
		futs[i] = e.Submit(serialize.TaskMsg{
			ID: int64(i), App: "echo", Args: []any{i},
			Tenant: fmt.Sprintf("t%d", i%5),
		})
	}
	for i, f := range futs {
		v, err := f.Result()
		if err != nil || v != i {
			t.Fatalf("task %d: %v, %v", i, v, err)
		}
	}
	if e.Outstanding() != 0 {
		t.Fatalf("outstanding = %d", e.Outstanding())
	}
	if alive, total := e.ShardCounts(); alive != 3 || total != 3 {
		t.Fatalf("ShardCounts = %d/%d, want 3/3", alive, total)
	}
}

// TestShardedKillFailsOnlyVictims is the failover invariant at the executor
// boundary: killing one shard surfaces LostError for exactly the tasks
// inflight on that shard — naming the shard — while every task on the other
// shards completes normally and no task is double-settled.
func TestShardedKillFailsOnlyVictims(t *testing.T) {
	e := newShardedHTEX(t, 3, 6, 1)
	waitCond(t, "every shard has a manager", func() bool {
		for _, n := range managersPerShard(e) {
			if n == 0 {
				return false
			}
		}
		return true
	})

	const n = 60
	futs := make([]*future.Future, n)
	for i := 0; i < n; i++ {
		futs[i] = e.Submit(serialize.TaskMsg{ID: int64(i), App: "sleep", Args: []any{100}})
	}
	// Freeze the task→shard assignment while everything is still inflight.
	e.mu.Lock()
	shardOf := make(map[int64]int, len(e.inflight))
	for id, it := range e.inflight {
		shardOf[id] = it.shard
	}
	e.mu.Unlock()
	if len(shardOf) != n {
		t.Fatalf("only %d of %d tasks inflight at snapshot", len(shardOf), n)
	}
	perShard := e.InflightByShard()
	victim := 0
	for i, c := range perShard {
		if c > perShard[victim] {
			victim = i
		}
	}
	if perShard[victim] == 0 {
		t.Fatalf("no shard holds inflight tasks: %v", perShard)
	}
	label := fmt.Sprintf("%s[%d]", e.cfg.Label, victim)

	if !e.KillShard(victim) {
		t.Fatalf("KillShard(%d) refused", victim)
	}
	if e.KillShard(victim) {
		t.Fatal("double KillShard reported success")
	}

	victims, survivors := 0, 0
	for i, f := range futs {
		v, err := f.Result()
		if shardOf[int64(i)] == victim {
			var le *executor.LostError
			if !errors.As(err, &le) {
				t.Fatalf("victim-shard task %d: want LostError, got %v, %v", i, v, err)
			}
			if le.Manager != label {
				t.Fatalf("victim-shard task %d lost by %q, want shard label %q", i, le.Manager, label)
			}
			victims++
		} else {
			if err != nil || v != "slept" {
				t.Fatalf("survivor-shard task %d failed: %v, %v — other shards must keep draining", i, v, err)
			}
			survivors++
		}
	}
	if victims == 0 || survivors == 0 {
		t.Fatalf("degenerate split victims=%d survivors=%d", victims, survivors)
	}
	if victims != perShard[victim] {
		t.Fatalf("failed %d tasks, victim shard held %d — kill must requeue exactly its outstanding set", victims, perShard[victim])
	}
	for i, lost := range e.LostByShard() {
		want := 0
		if i == victim {
			want = victims
		}
		if lost != want {
			t.Fatalf("LostByShard[%d] = %d, want %d — the death's own account must be exactly the victim's set", i, lost, want)
		}
	}
	if e.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after reconciliation", e.Outstanding())
	}
	if alive, total := e.ShardCounts(); alive != 2 || total != 3 {
		t.Fatalf("ShardCounts = %d/%d, want 2/3", alive, total)
	}

	// The survivors still form a working executor: new work completes.
	v, err := e.Submit(serialize.TaskMsg{ID: n + 1, App: "echo", Args: []any{"after"}}).Result()
	if err != nil || v != "after" {
		t.Fatalf("post-failover submit: %v, %v", v, err)
	}
}

// TestShardedRefusedBatchCountsLost: once every shard is dead, a batch the
// dead endpoint refuses fails each of its tasks, and LostByShard counts them
// on the refusing shard's account, at one shard exactly as at three.
func TestShardedRefusedBatchCountsLost(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			e := newShardedHTEX(t, shards, shards, 1)
			for i := 0; i < shards; i++ {
				e.KillShard(i)
			}
			if alive, _ := e.ShardCounts(); alive != 0 {
				t.Fatalf("ShardCounts alive = %d with every shard killed, want 0", alive)
			}
			before := 0
			for _, n := range e.LostByShard() {
				before += n
			}
			futs := e.SubmitBatch([]serialize.TaskMsg{
				{ID: 1, App: "echo", Args: []any{1}},
				{ID: 2, App: "echo", Args: []any{2}},
			})
			for i, f := range futs {
				if _, err := f.Result(); err == nil {
					t.Fatalf("task %d succeeded on a dead deployment", i+1)
				}
			}
			after := 0
			for _, n := range e.LostByShard() {
				after += n
			}
			if after-before != len(futs) {
				t.Fatalf("LostByShard grew by %d for %d refused tasks", after-before, len(futs))
			}
			if e.Outstanding() != 0 {
				t.Fatalf("outstanding = %d after the refused batch failed", e.Outstanding())
			}
		})
	}
}

// TestDeadShardsRefuseAtRegistration: with every shard killed before the
// client submits, at one shard and at three, each task is refused at
// registration on its shard's account: its future fails with a LostError
// naming that shard, LostByShard counts it there, nothing stays outstanding,
// and nothing is sent to a dead endpoint, where a send can succeed into a
// pipe nobody reads and leave the future unsettled.
func TestDeadShardsRefuseAtRegistration(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			e := newShardedHTEX(t, shards, shards, 1)
			for i := 0; i < shards; i++ {
				if !e.KillShard(i) {
					t.Fatalf("shard %d was not alive to kill", i)
				}
			}
			before := e.LostByShard()
			msgs := make([]serialize.TaskMsg, 6)
			for i := range msgs {
				msgs[i] = serialize.TaskMsg{ID: int64(i + 1), App: "echo", Args: []any{i}, Tenant: fmt.Sprintf("t%d", i%3)}
			}
			futs := append([]*future.Future{e.Submit(msgs[0])}, e.SubmitBatch(msgs[1:])...)
			perShard := make([]int, shards)
			for i, f := range futs {
				_, err := f.Result()
				var lost *executor.LostError
				if !errors.As(err, &lost) || lost.TaskID != msgs[i].ID {
					t.Fatalf("task %d: %v; want a LostError for it", msgs[i].ID, err)
				}
				si := slices.IndexFunc(e.shards, func(s *shardLink) bool { return s.label == lost.Manager })
				if si < 0 {
					t.Fatalf("task %d lost on %q, not a shard", msgs[i].ID, lost.Manager)
				}
				perShard[si]++
			}
			after := e.LostByShard()
			for si := range perShard {
				if got := after[si] - before[si]; got != perShard[si] {
					t.Fatalf("shard %d: LostByShard grew by %d, %d tasks failed on its account", si, got, perShard[si])
				}
			}
			if n := e.Outstanding(); n != 0 {
				t.Fatalf("outstanding = %d after every task was refused", n)
			}
		})
	}
}

// TestShardedMergedLoad: the scheduler-facing probes report the union of the
// shards — queue depth, outstanding work, connected workers — exactly as one
// broker holding all the queues would.
func TestShardedMergedLoad(t *testing.T) {
	e := newShardedHTEX(t, 4, 4, 1)
	waitCond(t, "managers registered on every shard", func() bool {
		for _, n := range managersPerShard(e) {
			if n == 0 {
				return false
			}
		}
		return true
	})
	// Saturate: 4 managers × (1 worker + 1 prefetch) hold 8; the rest queue.
	const n = 80
	futs := make([]*future.Future, 0, n)
	for i := 0; i < n; i++ {
		futs = append(futs, e.Submit(serialize.TaskMsg{
			ID: int64(i), App: "sleep", Args: []any{30},
			Tenant: fmt.Sprintf("t%d", i%3), Weight: 1,
		}))
	}
	waitCond(t, "queues back up", func() bool { return queueDepth(e) > 0 })

	l := sched.LoadOf(e)
	if l.Workers != 4 {
		t.Fatalf("LoadOf workers = %d, want 4 managers × 1 worker", l.Workers)
	}
	if l.Outstanding == 0 || l.Outstanding > n {
		t.Fatalf("LoadOf outstanding = %d, want 1..%d while saturated", l.Outstanding, n)
	}
	if err := future.Wait(futs...); err != nil {
		t.Fatal(err)
	}
}

// TestShardedDeadShardsAgree: every merged probe reads shard liveness from
// the one place it is recorded, so once a shard is dead none of them still
// reports its backlog or its digest holdings, and a kill/restore history
// counts exactly the shards restored since.
func TestShardedDeadShardsAgree(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			e := newHTEX(t, 0, 1, func(c *Config) {
				c.Shards = shards
				c.InitBlocks = 0
			})
			const queued = 6
			futs := make([]*future.Future, 0, queued)
			for i := 0; i < queued; i++ {
				futs = append(futs, e.Submit(serialize.TaskMsg{ID: int64(i), App: "echo", Args: []any{i}, Tenant: "a"}))
			}
			waitCond(t, "tasks queued", func() bool { return queueDepth(e) == queued })
			for i := 0; i < shards; i++ {
				e.KillShard(i)
			}
			for i, f := range futs {
				var le *executor.LostError
				if _, err := f.Result(); !errors.As(err, &le) {
					t.Fatalf("task %d on a dead deployment: want LostError, got %v", i, err)
				}
			}
			if alive, total := e.ShardCounts(); alive != 0 || total != shards {
				t.Fatalf("ShardCounts = %d/%d with every shard killed, want 0/%d", alive, total, shards)
			}
			if d := queueDepth(e); d != 0 {
				t.Fatalf("QueueDepth = %d, want 0", d)
			}
		})
	}
	// A holding dies with its shard: HoldsDigest, the probe the locality
	// policy reads, drops a digest held on a killed shard, while a holding
	// on a surviving shard still serves the degraded executor.
	t.Run("held-digest", func(t *testing.T) {
		e := newShardedHTEX(t, 2, 2, 1)
		waitCond(t, "a manager on each shard", func() bool {
			n := managersPerShard(e)
			return n[0] > 0 && n[1] > 0
		})
		held := make([]string, 2) // per shard, a digest it holds
		for i := 0; held[0] == "" || held[1] == ""; i++ {
			if i == 64 {
				t.Fatalf("after 64 distinct inputs the shards hold %q", held)
			}
			arg := fmt.Sprintf("warm-%d", i)
			if _, err := e.Submit(serialize.TaskMsg{ID: int64(i), App: "echo", Args: []any{arg}}).Result(); err != nil {
				t.Fatal(err)
			}
			d := argsDigest(t, arg)
			for si := range held {
				if held[si] == "" && e.Shard(si).HasDigest(d) {
					held[si] = d
				}
			}
		}
		e.KillShard(0)
		if e.HoldsDigest(held[0]) {
			t.Fatal("HoldsDigest still reports a holding of the killed shard")
		}
		if !e.HoldsDigest(held[1]) {
			t.Fatal("HoldsDigest lost the surviving shard's holding")
		}
		e.KillShard(1)
		if e.HoldsDigest(held[1]) {
			t.Fatal("HoldsDigest reports a holding with every shard killed")
		}
	})
	t.Run("kill-kill-restore", func(t *testing.T) {
		e := newHTEX(t, 0, 1, func(c *Config) {
			c.Shards = 2
			c.InitBlocks = 0
		})
		e.KillShard(0)
		e.KillShard(1)
		if err := e.RestoreShard(0); err != nil {
			t.Fatal(err)
		}
		if alive, total := e.ShardCounts(); alive != 1 || total != 2 {
			t.Fatalf("ShardCounts = %d/%d after kill 0, kill 1, restore 0; want 1/2", alive, total)
		}
	})
}

// TestShardedDeadShardWaitsForCapacity: with a shard dead and no managers
// anywhere yet, a task whose key ranks the dead shard first waits on the
// best-ranked live shard — it is neither sent to the dead connection nor
// failed — and completes once a block brings managers.
func TestShardedDeadShardWaitsForCapacity(t *testing.T) {
	const shards, dead = 3, 1
	e := newHTEX(t, 0, 1, func(c *Config) {
		c.Shards = shards
		c.InitBlocks = 0
		c.Provider = provider.NewLocal(provider.Config{NodesPerBlock: shards - 1})
	})
	e.KillShard(dead)
	var futs []*future.Future
	for i := 0; len(futs) < 4; i++ {
		tenant := fmt.Sprintf("t%d", i)
		if taskShard(shards, tenant, 0, acceptAll, acceptAll) != dead {
			continue
		}
		futs = append(futs, e.Submit(serialize.TaskMsg{ID: int64(i), App: "echo", Args: []any{i}, Tenant: tenant}))
	}
	waitCond(t, "tasks queued on live shards", func() bool {
		for _, f := range futs {
			if f.Done() {
				return true
			}
		}
		return queueDepth(e) == len(futs)
	})
	for i, f := range futs {
		if f.Done() {
			_, err := f.Result()
			t.Fatalf("task %d settled while waiting for capacity: %v", i, err)
		}
	}
	if err := e.ScaleOut(1); err != nil {
		t.Fatal(err)
	}
	for i, f := range futs {
		if _, err := f.ResultTimeout(5 * time.Second); err != nil {
			t.Fatalf("task %d after scale-out: %v", i, err)
		}
	}
}

// TestShardedCommandChannel: administrative commands fan across shards —
// OUTSTANDING sums, MANAGERS concatenates every shard's registry.
func TestShardedCommandChannel(t *testing.T) {
	e := newShardedHTEX(t, 3, 6, 1)
	waitCond(t, "all managers registered", func() bool {
		total := 0
		for _, n := range managersPerShard(e) {
			total += n
		}
		return total == 6
	})
	mgrs, err := e.Command("MANAGERS", "", 5*time.Second)
	if err != nil || len(mgrs) != 6 {
		t.Fatalf("MANAGERS = %v, %v (want 6 ids)", mgrs, err)
	}
	n, err := outstandingRemote(e)
	if err != nil || n != 0 {
		t.Fatalf("outstandingRemote = %d, %v", n, err)
	}
	futs := make([]*future.Future, 0, 12)
	for i := 0; i < 12; i++ {
		futs = append(futs, e.Submit(serialize.TaskMsg{ID: int64(i), App: "sleep", Args: []any{50}}))
	}
	waitCond(t, "remote outstanding visible", func() bool {
		n, err := outstandingRemote(e)
		return err == nil && n > 0
	})
	if err := future.Wait(futs...); err != nil {
		t.Fatal(err)
	}
}

// TestShardedFixedAddrRejected: N routers cannot share one fixed port.
func TestShardedFixedAddrRejected(t *testing.T) {
	e := New(Config{
		Label:    "htex-fixed",
		Registry: testRegistry(t),
		Addr:     "127.0.0.1:7777",
		Shards:   2,
	})
	if err := e.Start(); err == nil {
		_ = e.Shutdown()
		t.Fatal("Start accepted 2 shards on one fixed address")
	}
}

// TestShardCountBounded: SubmitInto records each task's shard in an int16,
// so Start refuses more shards than that holds, before it opens any. The
// fixed address makes a Start that skipped the bound fail on the address
// instead, still opening nothing.
func TestShardCountBounded(t *testing.T) {
	e := New(Config{
		Label:    "htex-wide",
		Registry: testRegistry(t),
		Addr:     "127.0.0.1:7777",
		Shards:   math.MaxInt16 + 1,
	})
	if err := e.Start(); err == nil || !strings.Contains(err.Error(), "at most 32767") {
		_ = e.Shutdown()
		t.Fatalf("Start with %d shards: err = %v, want the shard bound", math.MaxInt16+1, err)
	}
}

// queueDepth sums the tasks waiting for manager capacity on the live shards.
func queueDepth(e *Executor) int {
	n := 0
	for _, s := range e.shards {
		if !s.down.Load() {
			n += s.broker().QueueDepth()
		}
	}
	return n
}
