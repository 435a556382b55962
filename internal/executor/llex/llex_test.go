package llex

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/executor"
	"repro/internal/future"
	"repro/internal/mq"
	"repro/internal/serialize"
	"repro/internal/simnet"
)

// mqDialFake connects a black-hole worker: it registers under the worker
// prefix, receives tasks, and never replies.
func mqDialFake(tr simnet.Transport, addr string) (*mq.Dealer, error) {
	d, err := mq.DialDealer(tr, addr, workerPrefix+"blackhole")
	if err != nil {
		return nil, err
	}
	go func() {
		for {
			if _, err := d.Recv(); err != nil {
				return
			}
		}
	}()
	return d, nil
}

func testRegistry(t *testing.T) *serialize.Registry {
	t.Helper()
	reg := serialize.NewRegistry()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(reg.Register("echo", func(args []any, _ map[string]any) (any, error) { return args[0], nil }))
	must(reg.Register("fail", func([]any, map[string]any) (any, error) { return nil, errors.New("bad") }))
	must(reg.Register("whoami", func(_ []any, _ map[string]any) (any, error) { return nil, nil }))
	return reg
}

func newLLEX(t *testing.T, workers int, tune func(*Config)) *Executor {
	t.Helper()
	cfg := Config{
		Label:     "llex-test",
		Transport: simnet.NewNetwork(0),
		Registry:  testRegistry(t),
		Workers:   workers,
	}
	if tune != nil {
		tune(&cfg)
	}
	e := New(cfg)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Shutdown() })
	waitCond(t, "workers connected", func() bool { return workerCount(e.relay) == workers })
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

func TestRoundTrip(t *testing.T) {
	e := newLLEX(t, 1, nil)
	v, err := e.Submit(serialize.TaskMsg{ID: 1, App: "echo", Args: []any{"low-latency"}}).Result()
	if err != nil || v != "low-latency" {
		t.Fatalf("result = %v, %v", v, err)
	}
}

func TestManyTasksRoundRobin(t *testing.T) {
	e := newLLEX(t, 4, nil)
	const n = 200
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

func TestAppError(t *testing.T) {
	e := newLLEX(t, 1, nil)
	_, err := e.Submit(serialize.TaskMsg{ID: 1, App: "fail"}).Result()
	var re *executor.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v", err)
	}
}

func TestTasksBeforeWorkersAreBuffered(t *testing.T) {
	// Start a bare relay + client without workers; tasks queue until a
	// worker joins.
	tr := simnet.NewNetwork(0)
	reg := testRegistry(t)
	e := New(Config{Label: "llex-late", Transport: tr, Registry: reg, Workers: 0})
	// Workers:0 clamps to 1; instead start executor with 1 worker but kill
	// it first to simulate no capacity.
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown()
	waitCond(t, "initial worker", func() bool { return workerCount(e.relay) == 1 })
	e.mu.Lock()
	w := e.workers[0]
	e.mu.Unlock()
	w.Stop()
	waitCond(t, "worker gone", func() bool { return workerCount(e.relay) == 0 })

	fut := e.Submit(serialize.TaskMsg{ID: 9, App: "echo", Args: []any{"buffered"}})
	time.Sleep(20 * time.Millisecond)
	if fut.Done() {
		t.Fatal("task completed with no workers")
	}
	if _, err := StartWorker(tr, e.relay.Addr(), "llw-late", reg); err != nil {
		t.Fatal(err)
	}
	v, err := fut.Result()
	if err != nil || v != "buffered" {
		t.Fatalf("buffered task: %v, %v", v, err)
	}
}

func TestWorkerLossNotDetectedButRetryRecovers(t *testing.T) {
	// The relay does no fault detection (§4.3.3); a task sent to a dead
	// worker is recovered by client-side timed retries.
	tr := simnet.NewNetwork(0)
	reg := testRegistry(t)
	e := New(Config{
		Label: "llex-retry", Transport: tr, Registry: reg, Workers: 2,
		RetryInterval: 50 * time.Millisecond, MaxRetries: 10,
	})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown()
	waitCond(t, "workers", func() bool { return workerCount(e.relay) == 2 })

	// Kill one worker; round-robin will land some sends on the dead slot
	// until the relay notices the disconnect, but retransmits recover.
	e.mu.Lock()
	victim := e.workers[0]
	e.mu.Unlock()
	victim.Stop()

	var futs []*future.Future
	for i := 0; i < 20; i++ {
		futs = append(futs, e.Submit(serialize.TaskMsg{ID: int64(i), App: "echo", Args: []any{i}}))
	}
	for i, f := range futs {
		v, err := f.Result()
		if err != nil || v != i {
			t.Fatalf("task %d: %v %v", i, v, err)
		}
	}
}

func TestRetriesExhaustedGivesLostError(t *testing.T) {
	tr := simnet.NewNetwork(0)
	reg := testRegistry(t)
	e := New(Config{
		Label: "llex-lost", Transport: tr, Registry: reg, Workers: 1,
		RetryInterval: 20 * time.Millisecond, MaxRetries: 2,
	})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown()
	waitCond(t, "worker", func() bool { return workerCount(e.relay) == 1 })
	// Kill the only worker; nothing can ever execute the task.
	e.mu.Lock()
	w := e.workers[0]
	e.mu.Unlock()
	w.Stop()
	waitCond(t, "worker gone", func() bool { return workerCount(e.relay) == 0 })

	// Note: with zero workers the relay buffers, so to exercise the lost
	// path we need the task to be swallowed. Connect a fake worker that
	// accepts tasks and never replies.
	d, err := mqDialFake(tr, e.relay.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	waitCond(t, "fake worker", func() bool { return workerCount(e.relay) == 1 })

	_, err = e.Submit(serialize.TaskMsg{ID: 1, App: "echo", Args: []any{1}}).Result()
	var lost *executor.LostError
	if !errors.As(err, &lost) {
		t.Fatalf("err = %v", err)
	}
}

func TestDuplicateResultsIgnored(t *testing.T) {
	// With aggressive retransmission a task may execute twice; the client
	// must surface exactly one result and ignore the duplicate.
	tr := simnet.NewNetwork(0)
	reg := testRegistry(t)
	e := New(Config{
		Label: "llex-dup", Transport: tr, Registry: reg, Workers: 2,
		RetryInterval: 5 * time.Millisecond, MaxRetries: 50,
	})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown()
	waitCond(t, "workers", func() bool { return workerCount(e.relay) == 2 })
	reg2 := reg
	_ = reg2
	// A slow-ish task: retransmits fire while the original executes.
	if err := reg.Register("slow", func([]any, map[string]any) (any, error) {
		time.Sleep(30 * time.Millisecond)
		return "once", nil
	}); err != nil {
		t.Fatal(err)
	}
	v, err := e.Submit(serialize.TaskMsg{ID: 77, App: "slow"}).Result()
	if err != nil || v != "once" {
		t.Fatalf("result = %v, %v", v, err)
	}
	time.Sleep(50 * time.Millisecond) // late duplicates must not panic
}

func TestSubmitAfterShutdown(t *testing.T) {
	e := newLLEX(t, 1, nil)
	_ = e.Shutdown()
	if _, err := e.Submit(serialize.TaskMsg{ID: 1, App: "echo", Args: []any{1}}).Result(); !errors.Is(err, executor.ErrShutdown) {
		t.Fatalf("err = %v", err)
	}
}

func TestOutstandingAccounting(t *testing.T) {
	e := newLLEX(t, 2, nil)
	var futs []*future.Future
	for i := 0; i < 50; i++ {
		futs = append(futs, e.Submit(serialize.TaskMsg{ID: int64(i), App: "echo", Args: []any{i}}))
	}
	_ = future.Wait(futs...)
	waitCond(t, "outstanding drains", func() bool { return e.Outstanding() == 0 })
}

func TestLatencyLowerThanHTEXShape(t *testing.T) {
	// Architectural property, not a microbenchmark: an LLEX round trip
	// crosses 4 one-way hops (client→relay→worker and back); HTEX crosses
	// 6 (client→interchange→manager→worker queue and back). With a 5 ms
	// one-way simnet delay LLEX must finish well under HTEX's floor.
	tr := simnet.NewNetwork(10 * time.Millisecond) // 5 ms one-way
	reg := testRegistry(t)
	e := New(Config{Label: "llex-lat", Transport: tr, Registry: reg, Workers: 1})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown()
	waitCond(t, "worker", func() bool { return workerCount(e.relay) == 1 })
	start := time.Now()
	if _, err := e.Submit(serialize.TaskMsg{ID: 1, App: "whoami"}).Result(); err != nil {
		t.Fatal(err)
	}
	rtt := time.Since(start)
	if rtt < 20*time.Millisecond {
		t.Fatalf("impossibly fast: %v (latency not applied?)", rtt)
	}
	if rtt > 60*time.Millisecond {
		t.Fatalf("llex rtt = %v, expected ~4 hops × 5 ms", rtt)
	}
}

// TestRelayDoesNotSpinOnDeadWorker: the relay's one goroutine both forwards
// tasks and prunes departed workers, so a forward that keeps retrying a dead
// worker can never see that worker's leave event — and after Close every send
// fails. Tasks racing a worker's departure must end up delivered, backlogged or
// dropped by the close, and Close must return.
func TestRelayDoesNotSpinOnDeadWorker(t *testing.T) {
	reg := testRegistry(t)
	for round := 0; round < 50; round++ {
		tr := simnet.NewNetwork(0)
		rl, err := StartRelay(tr, ":0")
		if err != nil {
			t.Fatal(err)
		}
		w, err := StartWorker(tr, rl.Addr(), "w", reg)
		if err != nil {
			t.Fatal(err)
		}
		waitCond(t, "worker connected", func() bool { return workerCount(rl) == 1 })
		client, err := mq.DialDealer(tr, rl.Addr(), clientID)
		if err != nil {
			t.Fatal(err)
		}
		w.Stop()
		for i := 0; i < 20; i++ {
			if err := client.Send(mq.Message{[]byte(frameTask), []byte("opaque to the relay")}); err != nil {
				t.Fatal(err)
			}
		}
		closed := make(chan struct{})
		go func() {
			_ = rl.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(3 * time.Second):
			t.Fatalf("round %d: Relay.Close hung: forward is spinning on a dead worker", round)
		}
		_ = client.Close()
	}
}

// workerCount reads how many workers the relay has connected.
func workerCount(rl *Relay) int {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	return len(rl.workers)
}

// TestSubmitRacingShutdownSettles: a Submit that passes the closed check
// while Shutdown runs must still settle its future — with a result or with
// ErrShutdown — and leave Outstanding at zero, never park it in a pending
// map that Shutdown has already swapped out and failed.
func TestSubmitRacingShutdownSettles(t *testing.T) {
	const rounds, submitters = 100, 4
	for r := 0; r < rounds; r++ {
		e := New(Config{Transport: simnet.NewNetwork(0), Registry: testRegistry(t)})
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		var wg, running sync.WaitGroup
		futs := make([][]*future.Future, submitters)
		for s := range futs {
			wg.Add(1)
			running.Add(1)
			go func() {
				defer wg.Done()
				// Submit until Submit itself reports the shutdown, so the
				// submissions straddle the whole Shutdown call.
				for i := 0; ; i++ {
					id := int64(s<<20 | i)
					f := e.Submit(serialize.TaskMsg{ID: id, App: "echo", Args: []any{id}})
					futs[s] = append(futs[s], f)
					if i == 0 {
						running.Done()
					}
					if f.Done() && errors.Is(f.Err(), executor.ErrShutdown) {
						return
					}
				}
			}()
		}
		running.Wait()
		_ = e.Shutdown()
		wg.Wait()
		deadline := time.After(2 * time.Second)
		for _, fs := range futs {
			for _, f := range fs {
				select {
				case <-f.DoneChan():
				case <-deadline:
					t.Fatalf("round %d: a Submit racing Shutdown never settled", r)
				}
			}
		}
		if n := e.Outstanding(); n != 0 {
			t.Fatalf("round %d: Outstanding = %d after Shutdown, want 0", r, n)
		}
	}
}
