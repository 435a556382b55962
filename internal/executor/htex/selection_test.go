package htex

import (
	"testing"
	"time"

	"repro/internal/future"
	"repro/internal/mq"
	"repro/internal/provider"
	"repro/internal/serialize"
	"repro/internal/simnet"
)

func trackingRegistry(t *testing.T) *serialize.Registry {
	t.Helper()
	reg := serialize.NewRegistry()
	if err := reg.Register("who", func(_ []any, _ map[string]any) (any, error) {
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	return reg
}

func runSelection(t *testing.T, sel Selection, tasks int) {
	t.Helper()
	reg := trackingRegistry(t)
	e := New(Config{
		Label:       "sel",
		Transport:   simnet.NewNetwork(0),
		Registry:    reg,
		Provider:    provider.NewLocal(provider.Config{NodesPerBlock: 3}),
		InitBlocks:  1,
		Manager:     ManagerConfig{Workers: 1},
		Interchange: InterchangeConfig{Seed: 7, Selection: sel, BatchSize: 1},
	})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Shutdown() })
	waitCond(t, "managers", func() bool { return e.Interchange().ManagerCount() == 3 })

	futs := make([]*future.Future, tasks)
	for i := 0; i < tasks; i++ {
		futs[i] = e.Submit(serialize.TaskMsg{ID: int64(i), App: "who"})
	}
	if err := future.Wait(futs...); err != nil {
		t.Fatal(err)
	}
}

func TestRoundRobinCompletesAll(t *testing.T)      { runSelection(t, SelectRoundRobin, 30) }
func TestRandomSelectionCompletesAll(t *testing.T) { runSelection(t, SelectRandom, 30) }

func TestRoundRobinCyclesManagersEvenly(t *testing.T) {
	// Direct policy check: three serial managers, batch size 1, round-robin
	// — every manager must execute exactly n/3 tasks. Each manager
	// advertises capacity for its whole share (prefetch n/3 - 1), so all
	// three stay dispatch-eligible until the queue is empty and the
	// rotation is a pure function of arrival order. With capacity 1 the
	// even split would instead depend on result-return timing (whichever
	// manager freed first got the next task) — a load-dependent flake.
	reg := trackingRegistry(t)
	tr := simnet.NewNetwork(0)
	ix, err := StartInterchange(tr, "ix-rr", InterchangeConfig{
		Seed: 1, Selection: SelectRoundRobin, BatchSize: 1,
		HeartbeatPeriod: time.Hour, HeartbeatThreshold: 2 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	var mgrs []*Manager
	for _, id := range []string{"mgr-a", "mgr-b", "mgr-c"} {
		m, err := StartManager(tr, ix.Addr(), id, reg, ManagerConfig{Workers: 1, Prefetch: 3, HeartbeatPeriod: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Stop()
		mgrs = append(mgrs, m)
	}
	waitCond(t, "3 managers", func() bool { return ix.ManagerCount() == 3 })

	// A bare client dealer submits tasks straight to the interchange.
	client, err := mq.DialDealer(tr, ix.Addr(), clientIdentity)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// One task per TASKB frame, as Executor.Submit sends them.
	const n = 12
	enc := serialize.NewStreamEncoder()
	for i := 0; i < n; i++ {
		msg := serialize.TaskMsg{ID: int64(i), App: "who"}
		w, err := msg.Wire()
		if err != nil {
			t.Fatal(err)
		}
		err = enc.EncodeTasks([]serialize.WireTask{w}, func(frame []byte) error {
			return client.Send(mq.Message{tagTaskSub, frame})
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	waitCond(t, "all executed", func() bool {
		total := int64(0)
		for _, m := range mgrs {
			total += m.Executed()
		}
		return total == n
	})
	for _, m := range mgrs {
		if got := m.Executed(); got != n/3 {
			t.Fatalf("manager %s executed %d, want %d (round robin)", m.id, got, n/3)
		}
	}
}

// TestManagerCountTakesNoBrokerLock: load-aware routing reads ManagerCount on
// every pick, so it must answer while the interchange's own goroutines hold
// the broker lock, and track registrations and clean departures.
func TestManagerCountTakesNoBrokerLock(t *testing.T) {
	reg := trackingRegistry(t)
	tr := simnet.NewNetwork(0)
	ix, err := StartInterchange(tr, "ix-count", InterchangeConfig{
		Seed: 1, HeartbeatPeriod: time.Hour, HeartbeatThreshold: 2 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	var mgrs []*Manager
	for _, id := range []string{"mgr-a", "mgr-b"} {
		m, err := StartManager(tr, ix.Addr(), id, reg, ManagerConfig{Workers: 1, HeartbeatPeriod: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Stop()
		mgrs = append(mgrs, m)
	}
	waitCond(t, "2 managers", func() bool { return ix.ManagerCount() == 2 })
	mgrs[0].Drain()
	waitCond(t, "1 manager after BYE", func() bool { return ix.ManagerCount() == 1 })

	ix.mu.Lock()
	got := make(chan int, 1)
	go func() { got <- ix.ManagerCount() }()
	select {
	case n := <-got:
		ix.mu.Unlock()
		if n != 1 {
			t.Fatalf("ManagerCount = %d under the broker lock, want 1", n)
		}
	case <-time.After(time.Second):
		ix.mu.Unlock()
		<-got
		t.Fatal("ManagerCount blocked on the broker lock")
	}
}
