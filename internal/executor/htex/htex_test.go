package htex

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/executor"
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

// newHTEX builds an executor over a zero-latency simnet with a local
// provider of one block × nodes, each with workers worker goroutines.
func newHTEX(t *testing.T, nodes, workers int, tune func(*Config)) *Executor {
	t.Helper()
	reg := testRegistry(t)
	cfg := Config{
		Label:      "htex-test",
		Transport:  simnet.NewNetwork(0),
		Registry:   reg,
		Provider:   provider.NewLocal(provider.Config{NodesPerBlock: nodes}),
		InitBlocks: 1,
		Manager:    ManagerConfig{Workers: workers, Prefetch: workers},
		Interchange: InterchangeConfig{
			Seed:               1,
			HeartbeatPeriod:    50 * time.Millisecond,
			HeartbeatThreshold: 250 * time.Millisecond,
		},
	}
	if tune != nil {
		tune(&cfg)
	}
	e := New(cfg)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Shutdown() })
	waitCond(t, "managers registered", func() bool {
		total := 0
		for i := 0; i < e.ShardCount(); i++ {
			total += e.Shard(i).ManagerCount()
		}
		return total == nodes
	})
	return e
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

func TestSubmitRoundTrip(t *testing.T) {
	e := newHTEX(t, 1, 2, nil)
	v, err := e.Submit(serialize.TaskMsg{ID: 1, App: "echo", Args: []any{"hello"}}).Result()
	if err != nil || v != "hello" {
		t.Fatalf("result = %v, %v", v, err)
	}
}

func TestManyTasksAcrossManagers(t *testing.T) {
	e := newHTEX(t, 4, 2, nil)
	const n = 200
	futs := make([]*future.Future, n)
	for i := 0; i < n; i++ {
		futs[i] = e.Submit(serialize.TaskMsg{ID: int64(i), App: "echo", Args: []any{i}})
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
}

func TestAppErrorPropagates(t *testing.T) {
	e := newHTEX(t, 1, 1, nil)
	_, err := e.Submit(serialize.TaskMsg{ID: 1, App: "fail"}).Result()
	var re *executor.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v", err)
	}
}

func TestParallelismUsesAllWorkers(t *testing.T) {
	e := newHTEX(t, 2, 4, nil) // 8 workers
	start := time.Now()
	var futs []*future.Future
	for i := 0; i < 16; i++ {
		futs = append(futs, e.Submit(serialize.TaskMsg{ID: int64(i), App: "sleep", Args: []any{50}}))
	}
	if err := future.Wait(futs...); err != nil {
		t.Fatal(err)
	}
	// 16×50ms over 8 workers ≈ 100 ms; sequential would be 800 ms.
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("insufficient parallelism: %v", elapsed)
	}
}

func TestAbruptManagerKillFailsInFlight(t *testing.T) {
	reg := testRegistry(t)
	tr := simnet.NewNetwork(0)
	prov := provider.NewLocal(provider.Config{NodesPerBlock: 1})

	cfg := Config{
		Label:     "htex-kill",
		Transport: tr,
		Registry:  reg,
		Provider:  prov,
		Manager:   ManagerConfig{Workers: 1, HeartbeatPeriod: 30 * time.Millisecond},
		Interchange: InterchangeConfig{
			Seed: 1, HeartbeatPeriod: 30 * time.Millisecond, HeartbeatThreshold: 150 * time.Millisecond,
		},
	}
	e := New(cfg)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown()

	// Start one manager by hand so we can kill it without Drain.
	mgr, err := StartManager(tr, e.Interchange().Addr(), "mgr-victim", reg, cfg.Manager)
	if err != nil {
		t.Fatal(err)
	}
	waitCond(t, "manager registered", func() bool { return e.Interchange().ManagerCount() == 1 })

	fut := e.Submit(serialize.TaskMsg{ID: 42, App: "sleep", Args: []any{5000}})
	waitCond(t, "task in flight on victim", func() bool {
		return e.Interchange().OutstandingByManager()["mgr-victim"] == 1
	})
	mgr.Stop() // abrupt death: no BYE

	_, err = fut.Result()
	var lost *executor.LostError
	if !errors.As(err, &lost) {
		t.Fatalf("err = %v, want LostError", err)
	}
	waitCond(t, "manager deregistered", func() bool { return e.Interchange().ManagerCount() == 0 })
}

func TestDrainRequeuesInFlight(t *testing.T) {
	reg := testRegistry(t)
	tr := simnet.NewNetwork(0)
	cfg := Config{
		Label: "htex-drain", Transport: tr, Registry: reg,
		Provider: provider.NewLocal(provider.Config{NodesPerBlock: 1}),
		Manager:  ManagerConfig{Workers: 1},
		Interchange: InterchangeConfig{
			Seed: 1, HeartbeatPeriod: 50 * time.Millisecond, HeartbeatThreshold: 10 * time.Second,
		},
	}
	e := New(cfg)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown()

	slow, err := StartManager(tr, e.Interchange().Addr(), "mgr-slow", reg, cfg.Manager)
	if err != nil {
		t.Fatal(err)
	}
	waitCond(t, "slow manager", func() bool { return e.Interchange().ManagerCount() == 1 })

	// Fill the slow manager with a long task plus a queued one, then drain:
	// the queued task must move to a fresh manager and still complete.
	futLong := e.Submit(serialize.TaskMsg{ID: 1, App: "sleep", Args: []any{300}})
	waitCond(t, "long task in flight", func() bool {
		return e.Interchange().OutstandingByManager()["mgr-slow"] >= 1
	})
	futQueued := e.Submit(serialize.TaskMsg{ID: 2, App: "echo", Args: []any{"requeued"}})
	// Deterministic, not a sleep: the manager's single slot is occupied by
	// the long task, so the queued task is visible in the interchange queue
	// before the drain begins.
	waitCond(t, "queued task parked at interchange", func() bool {
		return e.Interchange().QueueDepth() == 1
	})
	slow.Drain()

	fresh, err := StartManager(tr, e.Interchange().Addr(), "mgr-fresh", reg, cfg.Manager)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Stop()

	v, err := futQueued.Result()
	if err != nil || v != "requeued" {
		t.Fatalf("requeued task: %v, %v", v, err)
	}
	// The long task was in flight on the drained manager; BYE requeues it
	// too, so it eventually completes on the fresh manager.
	v, err = futLong.Result()
	if err != nil || v != "slept" {
		t.Fatalf("long task: %v, %v", v, err)
	}
}

// TestCancelDropsQueuedTask cancels a task while it waits in the
// interchange queue (no managers registered yet): the client future settles
// with ErrCanceled, the interchange forgets the task, and when capacity
// finally arrives only the surviving task executes.
func TestCancelDropsQueuedTask(t *testing.T) {
	reg := testRegistry(t)
	tr := simnet.NewNetwork(0)
	cfg := Config{
		Label: "htex-cancel", Transport: tr, Registry: reg,
		Provider: provider.NewLocal(provider.Config{NodesPerBlock: 1}),
		Manager:  ManagerConfig{Workers: 1},
		Interchange: InterchangeConfig{
			Seed: 1, HeartbeatPeriod: 50 * time.Millisecond, HeartbeatThreshold: 10 * time.Second,
		},
	}
	e := New(cfg) // InitBlocks 0: tasks queue at the interchange
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown()

	victim := e.Submit(serialize.TaskMsg{ID: 1, App: "echo", Args: []any{"victim"}})
	survivor := e.Submit(serialize.TaskMsg{ID: 2, App: "echo", Args: []any{"survivor"}})
	waitCond(t, "tasks queued at interchange", func() bool { return e.Interchange().QueueDepth() == 2 })

	if !e.Cancel(1) {
		t.Fatal("Cancel(1) = false for a pending task")
	}
	if _, err := victim.Result(); !errors.Is(err, future.ErrCanceled) {
		t.Fatalf("victim error = %v, want ErrCanceled", err)
	}
	if e.Outstanding() != 1 {
		t.Fatalf("outstanding = %d after cancel, want 1", e.Outstanding())
	}
	waitCond(t, "interchange dropped the victim", func() bool { return e.Interchange().QueueDepth() == 1 })

	// Capacity arrives: only the survivor runs.
	mgr, err := StartManager(tr, e.Interchange().Addr(), "mgr-late", reg, cfg.Manager)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Stop()
	v, err := survivor.Result()
	if err != nil || v != "survivor" {
		t.Fatalf("survivor: %v, %v", v, err)
	}
	waitCond(t, "queue drained", func() bool { return e.Interchange().QueueDepth() == 0 })
	if got := mgr.Executed(); got != 1 {
		t.Fatalf("manager executed %d tasks, want 1", got)
	}
	// Canceling an unknown or already-finished task reports false.
	if e.Cancel(1) || e.Cancel(2) || e.Cancel(99) {
		t.Fatal("Cancel succeeded on settled or unknown ids")
	}
}

// TestInterchangeHonorsPriority queues tasks with mixed priorities while no
// manager is connected, then attaches a single serial worker: dispatch must
// be highest-priority-first, with equal priorities in arrival order.
func TestInterchangeHonorsPriority(t *testing.T) {
	reg := serialize.NewRegistry()
	var mu sync.Mutex
	var order []string
	if err := reg.Register("mark", func(args []any, _ map[string]any) (any, error) {
		mu.Lock()
		order = append(order, args[0].(string))
		mu.Unlock()
		return args[0], nil
	}); err != nil {
		t.Fatal(err)
	}
	tr := simnet.NewNetwork(0)
	cfg := Config{
		Label: "htex-prio", Transport: tr, Registry: reg,
		Provider: provider.NewLocal(provider.Config{NodesPerBlock: 1}),
		Manager:  ManagerConfig{Workers: 1},
		Interchange: InterchangeConfig{
			Seed: 1, BatchSize: 1, HeartbeatPeriod: 50 * time.Millisecond, HeartbeatThreshold: 10 * time.Second,
		},
	}
	e := New(cfg) // no managers yet: everything queues at the interchange
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown()

	futs := []*future.Future{
		e.Submit(serialize.TaskMsg{ID: 1, App: "mark", Args: []any{"low-first"}, Priority: 1}),
		e.Submit(serialize.TaskMsg{ID: 2, App: "mark", Args: []any{"high"}, Priority: 9}),
		e.Submit(serialize.TaskMsg{ID: 3, App: "mark", Args: []any{"low-second"}, Priority: 1}),
	}
	waitCond(t, "tasks queued", func() bool { return e.Interchange().QueueDepth() == 3 })

	mgr, err := StartManager(tr, e.Interchange().Addr(), "mgr-prio", reg, cfg.Manager)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Stop()
	for _, f := range futs {
		if _, err := f.Result(); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"high", "low-first", "low-second"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order = %v, want %v", order, want)
		}
	}
}

// TestCancelForwardedToManager cancels a task the interchange has already
// handed to a manager but whose worker has not started it: the manager's
// worker drops it on dequeue.
func TestCancelForwardedToManager(t *testing.T) {
	reg := testRegistry(t)
	// The registry is shared in-process with the manager, so the gate can
	// close over a test-local channel; only task args cross the gob wire.
	release := make(chan struct{})
	if err := reg.Register("gate", func([]any, map[string]any) (any, error) {
		<-release
		return "gated", nil
	}); err != nil {
		t.Fatal(err)
	}
	tr := simnet.NewNetwork(0)
	cfg := Config{
		Label: "htex-cancel-mgr", Transport: tr, Registry: reg,
		Provider: provider.NewLocal(provider.Config{NodesPerBlock: 1}),
		Manager:  ManagerConfig{Workers: 1, Prefetch: 2},
		Interchange: InterchangeConfig{
			Seed: 1, HeartbeatPeriod: 50 * time.Millisecond, HeartbeatThreshold: 10 * time.Second,
		},
	}
	e := New(cfg)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown()

	mgr, err := StartManager(tr, e.Interchange().Addr(), "mgr-gate", reg, cfg.Manager)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Stop()
	waitCond(t, "manager registered", func() bool { return e.Interchange().ManagerCount() == 1 })

	blocker := e.Submit(serialize.TaskMsg{ID: 1, App: "gate"})
	waitCond(t, "blocker in flight", func() bool {
		return e.Interchange().OutstandingByManager()["mgr-gate"] >= 1
	})
	victim := e.Submit(serialize.TaskMsg{ID: 2, App: "echo", Args: []any{"victim"}})
	waitCond(t, "victim prefetched by manager", func() bool {
		return e.Interchange().OutstandingByManager()["mgr-gate"] == 2
	})

	if !e.Cancel(2) {
		t.Fatal("Cancel(2) = false")
	}
	if _, err := victim.Result(); !errors.Is(err, future.ErrCanceled) {
		t.Fatalf("victim error = %v, want ErrCanceled", err)
	}
	waitCond(t, "interchange struck the victim", func() bool {
		return e.Interchange().OutstandingByManager()["mgr-gate"] == 1
	})

	close(release)
	if v, err := blocker.Result(); err != nil || v != "gated" {
		t.Fatalf("blocker: %v, %v", v, err)
	}
	waitCond(t, "only the blocker executed", func() bool { return mgr.Executed() == 1 })
}

// outstandingRemote asks every live shard for its task count via the command
// channel and sums the answers.
func outstandingRemote(e *Executor) (int, error) {
	rep, err := e.Command("OUTSTANDING", "", 5*time.Second)
	if err != nil {
		return 0, err
	}
	if len(rep) == 0 {
		return 0, errors.New("htex: empty OUTSTANDING reply")
	}
	total := 0
	for _, p := range rep {
		n, err := strconv.Atoi(p)
		if err != nil {
			return 0, fmt.Errorf("htex: bad OUTSTANDING reply %q", p)
		}
		total += n
	}
	return total, nil
}

func TestCommandChannel(t *testing.T) {
	e := newHTEX(t, 2, 1, nil)
	// MANAGERS lists both.
	reps, err := e.Command("MANAGERS", "", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 {
		t.Fatalf("managers = %v", reps)
	}
	// OUTSTANDING is zero when idle.
	n, err := outstandingRemote(e)
	if err != nil || n != 0 {
		t.Fatalf("outstanding = %d, %v", n, err)
	}
	// BLACKLIST removes a manager from dispatch.
	if _, err := e.Command("BLACKLIST", reps[0], 2*time.Second); err != nil {
		t.Fatal(err)
	}
	// Unknown command gets a reply, not a hang.
	rep, err := e.Command("FLY", "", 2*time.Second)
	if err != nil || len(rep) == 0 || rep[0] != "unknown-command" {
		t.Fatalf("rep = %v, %v", rep, err)
	}
}

// scriptedBroker starts an executor and re-points its one shard at a bare
// router the test drives, so a test can put any frame it likes on the
// client's receive loop. The returned channel carries the commands the client
// sent, in order.
func scriptedBroker(t *testing.T) (*Executor, *mq.Router, <-chan string) {
	t.Helper()
	tr := simnet.NewNetwork(0)
	e := New(Config{Label: "scripted", Transport: tr, Registry: testRegistry(t)})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Shutdown() })
	router, err := mq.NewRouter(tr, ":0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = router.Close() })
	dealer, err := mq.DialDealer(tr, router.Addr(), clientIdentity)
	if err != nil {
		t.Fatal(err)
	}
	// An answer from the real broker shows the receive loop Start launched has
	// bound itself to its connection; swapped before that, it would bind to
	// the new one and two loops would read one dealer.
	if _, err := e.Command("OUTSTANDING", "", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// The swap RestoreShard makes: new connection in, stale dealer closed so
	// its receive loop exits, a fresh loop on the new one.
	s := e.shards[0]
	c := &shardConn{ix: s.broker(), stream: newPeerStream(dealer, nil, "", tagTaskSub, chaos.PointClientSend, s.label)}
	old := s.conn.Swap(c)
	_ = old.stream.dealer.Close()
	e.wg.Add(1)
	go e.recvLoop(s, c)

	cmds := make(chan string, 16) // more than any test here sends
	done := make(chan struct{})
	t.Cleanup(func() { close(done) })
	go func() {
		for {
			select {
			case del := <-router.Incoming():
				if len(del.Msg) >= 2 && string(del.Msg[0]) == frameCmd {
					cmds <- string(del.Msg[1])
				}
			case <-done:
				return
			}
		}
	}()
	return e, router, cmds
}

func TestCommandSkipsShortReply(t *testing.T) {
	e, router, cmds := scriptedBroker(t)
	go func() {
		<-cmds
		_ = router.SendTo(clientIdentity, mq.Message{tagCmdRep})
		_ = router.SendTo(clientIdentity, mq.Message{tagCmdRep, []byte("MANAGERS"), []byte("mgr-a")})
	}()
	rep, err := e.Command("MANAGERS", "", 2*time.Second)
	if err != nil || len(rep) != 1 || rep[0] != "mgr-a" {
		t.Fatalf("MANAGERS after a one-part CMDREP = %v, %v; want [mgr-a]", rep, err)
	}
}

func TestCommandSkipsLateReplyToEarlierCommand(t *testing.T) {
	e, router, cmds := scriptedBroker(t)
	if rep, err := e.Command("OUTSTANDING", "", 20*time.Millisecond); err == nil {
		t.Fatalf("unanswered OUTSTANDING = %v, want a timeout", rep)
	}
	<-cmds
	// The answer arrives after its command gave up and waits in the buffer.
	if err := router.SendTo(clientIdentity, mq.Message{tagCmdRep, []byte("OUTSTANDING"), []byte("7")}); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "late reply buffered", func() bool { return len(e.shards[0].cmdReplies) == 1 })
	go func() {
		<-cmds
		_ = router.SendTo(clientIdentity, mq.Message{tagCmdRep, []byte("MANAGERS"), []byte("mgr-a")})
	}()
	rep, err := e.Command("MANAGERS", "", 2*time.Second)
	if err != nil || len(rep) != 1 || rep[0] != "mgr-a" {
		t.Fatalf("MANAGERS = %v, %v; want [mgr-a], not the late OUTSTANDING count", rep, err)
	}
}

func TestBlacklistedManagerGetsNoTasks(t *testing.T) {
	e := newHTEX(t, 2, 1, nil)
	reps, err := e.Command("MANAGERS", "", 2*time.Second)
	if err != nil || len(reps) != 2 {
		t.Fatalf("managers: %v %v", reps, err)
	}
	if _, err := e.Command("BLACKLIST", reps[0], 2*time.Second); err != nil {
		t.Fatal(err)
	}
	var futs []*future.Future
	for i := 0; i < 20; i++ {
		futs = append(futs, e.Submit(serialize.TaskMsg{ID: int64(i), App: "echo", Args: []any{i}}))
	}
	if err := future.Wait(futs...); err != nil {
		t.Fatal(err)
	}
	// All tasks completed despite one of two managers being blacklisted.
}

func TestScaleOutAndIn(t *testing.T) {
	e := newHTEX(t, 1, 1, nil)
	if e.ActiveBlocks() != 1 {
		t.Fatalf("blocks = %d", e.ActiveBlocks())
	}
	if err := e.ScaleOut(2); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "3 managers", func() bool { return e.Interchange().ManagerCount() == 3 })
	if e.ActiveBlocks() != 3 {
		t.Fatalf("blocks = %d", e.ActiveBlocks())
	}
	if e.ConnectedWorkers() != 3 {
		t.Fatalf("workers = %d", e.ConnectedWorkers())
	}
	if err := e.ScaleIn(2); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "1 manager", func() bool { return e.Interchange().ManagerCount() == 1 })
	if e.ActiveBlocks() != 1 {
		t.Fatalf("blocks = %d", e.ActiveBlocks())
	}
	// Still works after churn.
	v, err := e.Submit(serialize.TaskMsg{ID: 99, App: "echo", Args: []any{"ok"}}).Result()
	if err != nil || v != "ok" {
		t.Fatalf("post-churn: %v, %v", v, err)
	}
}

// A negative count is refused and leaves the blocks as they are.
func TestScaleByNegativeCountRefused(t *testing.T) {
	e := newHTEX(t, 1, 1, nil)
	if err := e.ScaleOut(1); err != nil {
		t.Fatal(err)
	}
	if err := e.ScaleIn(-1); err == nil {
		t.Fatal("ScaleIn(-1) accepted")
	}
	if err := e.ScaleOut(-1); err == nil {
		t.Fatal("ScaleOut(-1) accepted")
	}
	if e.ActiveBlocks() != 2 {
		t.Fatalf("blocks = %d, want 2", e.ActiveBlocks())
	}
	v, err := e.Submit(serialize.TaskMsg{ID: 1, App: "echo", Args: []any{"ok"}}).Result()
	if err != nil || v != "ok" {
		t.Fatalf("after refused scaling: %v, %v", v, err)
	}
}

func TestSubmitAfterShutdown(t *testing.T) {
	e := newHTEX(t, 1, 1, nil)
	_ = e.Shutdown()
	_, err := e.Submit(serialize.TaskMsg{ID: 1, App: "echo", Args: []any{1}}).Result()
	if !errors.Is(err, executor.ErrShutdown) {
		t.Fatalf("err = %v", err)
	}
}

func TestShutdownFailsPending(t *testing.T) {
	e := newHTEX(t, 1, 1, nil)
	fut := e.Submit(serialize.TaskMsg{ID: 1, App: "sleep", Args: []any{10000}})
	// Condition, not a sleep: shut down only once the task is actually held
	// by the manager, so the test always exercises the in-flight path.
	waitCond(t, "task in flight", func() bool {
		for _, n := range e.Interchange().OutstandingByManager() {
			if n > 0 {
				return true
			}
		}
		return false
	})
	_ = e.Shutdown()
	if _, err := fut.Result(); err == nil {
		t.Fatal("pending task succeeded across shutdown")
	}
}

func TestOverTCP(t *testing.T) {
	reg := testRegistry(t)
	cfg := Config{
		Label:      "htex-tcp",
		Transport:  simnet.TCP{},
		Addr:       "127.0.0.1:0",
		Registry:   reg,
		Provider:   provider.NewLocal(provider.Config{NodesPerBlock: 1}),
		InitBlocks: 1,
		Manager:    ManagerConfig{Workers: 2},
		Interchange: InterchangeConfig{
			Seed: 1, HeartbeatPeriod: 100 * time.Millisecond, HeartbeatThreshold: time.Second,
		},
	}
	e := New(cfg)
	if err := e.Start(); err != nil {
		t.Skipf("tcp unavailable: %v", err)
	}
	defer e.Shutdown()
	waitCond(t, "tcp manager", func() bool { return e.Interchange().ManagerCount() == 1 })
	v, err := e.Submit(serialize.TaskMsg{ID: 1, App: "echo", Args: []any{"tcp"}}).Result()
	if err != nil || v != "tcp" {
		t.Fatalf("tcp round trip: %v, %v", v, err)
	}
}

func TestRandomizedDistributionFairness(t *testing.T) {
	e := newHTEX(t, 4, 1, func(c *Config) {
		c.Manager.Prefetch = 4
	})
	const n = 400
	futs := make([]*future.Future, n)
	for i := 0; i < n; i++ {
		futs[i] = e.Submit(serialize.TaskMsg{ID: int64(i), App: "echo", Args: []any{i}})
	}
	if err := future.Wait(futs...); err != nil {
		t.Fatal(err)
	}
	// Fairness is enforced inside the interchange by random selection; all
	// four managers must have executed something.
	reps, err := e.Command("MANAGERS", "", 2*time.Second)
	if err != nil || len(reps) != 4 {
		t.Fatalf("managers: %v %v", reps, err)
	}
}

func TestSubmitBatchRoundTrip(t *testing.T) {
	e := newHTEX(t, 2, 2, nil)
	const n = 100
	msgs := make([]serialize.TaskMsg, n)
	for i := range msgs {
		msgs[i] = serialize.TaskMsg{ID: int64(i), App: "echo", Args: []any{i}}
	}
	futs := e.SubmitBatch(msgs)
	if len(futs) != n {
		t.Fatalf("futs = %d", len(futs))
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
}

func TestSubmitBatchAfterShutdown(t *testing.T) {
	e := newHTEX(t, 1, 1, nil)
	_ = e.Shutdown()
	for _, f := range e.SubmitBatch([]serialize.TaskMsg{{ID: 7, App: "echo"}}) {
		if _, err := f.Result(); !errors.Is(err, executor.ErrShutdown) {
			t.Fatalf("err = %v", err)
		}
	}
}

func TestSubmitBatchIsolatesPoisonTask(t *testing.T) {
	e := newHTEX(t, 1, 2, nil)
	// Task 1's args contain a gob-unencodable func; tasks 0 and 2 are fine
	// and must still complete.
	msgs := []serialize.TaskMsg{
		{ID: 0, App: "echo", Args: []any{"before"}},
		{ID: 1, App: "echo", Args: []any{func() {}}},
		{ID: 2, App: "echo", Args: []any{"after"}},
	}
	futs := e.SubmitBatch(msgs)
	if _, err := futs[1].Result(); err == nil {
		t.Fatal("poison task succeeded")
	}
	if v, err := futs[0].Result(); err != nil || v != "before" {
		t.Fatalf("task 0: %v, %v", v, err)
	}
	if v, err := futs[2].Result(); err != nil || v != "after" {
		t.Fatalf("task 2: %v, %v", v, err)
	}
	if e.Outstanding() != 0 {
		t.Fatalf("outstanding = %d", e.Outstanding())
	}
}

// TestInterchangeTenantFairness backlogs the interchange with a heavy
// tenant's burst and a light tenant's handful of tasks: the tenant-fair
// queue must complete the light tenant long before the burst drains, instead
// of FIFO-parking it behind the whole backlog. Fairness established on the
// DFK's client leg holds past the wire because the tenant rides the
// WireTask envelope.
func TestInterchangeTenantFairness(t *testing.T) {
	e := newHTEX(t, 1, 1, func(c *Config) {
		c.Manager = ManagerConfig{Workers: 1, Prefetch: 0}
		c.Interchange.BatchSize = 1
	})

	const heavyN, lightN = 200, 6
	var done sync.Mutex
	heavyDone := 0
	heavyAtLightFinish := -1
	lightLeft := lightN

	heavy := make([]serialize.TaskMsg, heavyN)
	for i := range heavy {
		heavy[i] = serialize.TaskMsg{
			ID: int64(i + 1), App: "sleep", Args: []any{2},
			Tenant: "heavy", Weight: 10,
		}
	}
	heavyFuts := e.SubmitBatch(heavy)
	for _, f := range heavyFuts {
		f.AddDoneCallback(func(df *future.Future) {
			done.Lock()
			heavyDone++
			done.Unlock()
		})
	}
	waitCond(t, "heavy backlog queued", func() bool { return e.Interchange().QueueDepth() > heavyN/2 })

	light := make([]serialize.TaskMsg, lightN)
	for i := range light {
		light[i] = serialize.TaskMsg{
			ID: int64(1000 + i), App: "sleep", Args: []any{2},
			Tenant: "light", Weight: 1,
		}
	}
	lightFuts := e.SubmitBatch(light)
	for _, f := range lightFuts {
		f.AddDoneCallback(func(df *future.Future) {
			done.Lock()
			lightLeft--
			if lightLeft == 0 {
				heavyAtLightFinish = heavyDone
			}
			done.Unlock()
		})
	}

	waitCond(t, "light tenant visible in queue depth", func() bool {
		return e.Interchange().queue.PerTenant()["light"] > 0
	})

	for _, f := range lightFuts {
		if _, err := f.Result(); err != nil {
			t.Fatal(err)
		}
	}
	done.Lock()
	snapshot := heavyAtLightFinish
	done.Unlock()
	// With weights 10:1 the light tenant's 6 tasks finish around heavy's
	// 60th completion — DRR quanta resume across the broker's one-slot
	// dispatches — where FIFO would put them after all 200. Allow wide
	// noise either way.
	if snapshot < 0 || snapshot >= heavyN*3/4 {
		t.Fatalf("light tenant finished after %d/%d heavy tasks — not fair-shared", snapshot, heavyN)
	}
	for _, f := range heavyFuts {
		if _, err := f.Result(); err != nil {
			t.Fatal(err)
		}
	}
}

// settleWithin waits for every future to settle with its own index before the
// deadline, and fails the test on the first that does not.
func settleWithin(t *testing.T, futs []*future.Future, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for i, f := range futs {
		v, err := f.ResultTimeout(max(time.Until(deadline), time.Millisecond))
		if err != nil || v != i {
			t.Fatalf("task %d: %v, %v", i, v, err)
		}
	}
}

// TestResultBatchFullUnderLoad: a manager holds at most Workers+Prefetch
// tasks, so a result batch can never reach resultFlush = 16 on a 4-slot
// manager. It must go the moment it holds 4 results; with FlushInterval an
// hour, a loop that waited for 16 or for the timer would strand the burst.
func TestResultBatchFullUnderLoad(t *testing.T) {
	e := newHTEX(t, 1, 2, func(c *Config) {
		c.Manager = ManagerConfig{Workers: 2, Prefetch: 2, FlushInterval: time.Hour}
	})
	const n = 400
	msgs := make([]serialize.TaskMsg, n)
	for i := range msgs {
		msgs[i] = serialize.TaskMsg{ID: int64(i), App: "echo", Args: []any{i}}
	}
	settleWithin(t, e.SubmitBatch(msgs), 10*time.Second)
	waitCond(t, "interchange outstanding drained", func() bool {
		n, err := outstandingRemote(e)
		return err == nil && n == 0
	})
}

// TestResultBatchOneSlotManager: a one-slot manager's batch is full at one
// result, so a sequential caller never waits for FlushInterval.
func TestResultBatchOneSlotManager(t *testing.T) {
	e := newHTEX(t, 1, 1, func(c *Config) {
		c.Manager = ManagerConfig{Workers: 1, Prefetch: 0, FlushInterval: time.Hour}
	})
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < 50; i++ {
		f := e.Submit(serialize.TaskMsg{ID: int64(i), App: "echo", Args: []any{i}})
		if v, err := f.ResultTimeout(max(time.Until(deadline), time.Millisecond)); err != nil || v != i {
			t.Fatalf("task %d: %v, %v", i, v, err)
		}
	}
}

// TestResultBatchPartialTimerFallback: three tasks on a 4-slot manager never
// fill a batch; FlushInterval still sends them.
func TestResultBatchPartialTimerFallback(t *testing.T) {
	e := newHTEX(t, 1, 2, func(c *Config) {
		c.Manager = ManagerConfig{Workers: 2, Prefetch: 2, FlushInterval: 20 * time.Millisecond}
	})
	msgs := make([]serialize.TaskMsg, 3)
	for i := range msgs {
		msgs[i] = serialize.TaskMsg{ID: int64(i), App: "echo", Args: []any{i}}
	}
	settleWithin(t, e.SubmitBatch(msgs), 10*time.Second)
}
