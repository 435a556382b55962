package htex

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/serialize"
)

// TestUnserializableResultFailsOnlyItsTask: an app that returns a value of a
// type nobody registered must cost exactly its own task. The manager used to
// drop the whole result batch on the encode error — silently, forever: every
// future in it stayed unsettled and the broker leaked their capacity slots.
func TestUnserializableResultFailsOnlyItsTask(t *testing.T) {
	type unregistered struct{ X int }
	e := newHTEX(t, 1, 2, func(cfg *Config) {
		if err := cfg.Registry.Register("opaque", func([]any, map[string]any) (any, error) {
			return unregistered{7}, nil
		}); err != nil {
			t.Fatal(err)
		}
		// One flush carries both results: the good one must survive the
		// company of the bad one.
		cfg.Manager.FlushInterval = 50 * time.Millisecond
	})
	good := e.Submit(serialize.TaskMsg{ID: 1, App: "echo", Args: []any{"kept"}})
	bad := e.Submit(serialize.TaskMsg{ID: 2, App: "opaque"})

	deadline := time.After(3 * time.Second)
	for _, f := range []interface{ DoneChan() <-chan struct{} }{good, bad} {
		select {
		case <-f.DoneChan():
		case <-deadline:
			t.Fatalf("a future is still unsettled after 3s; outstanding = %d, by manager = %v",
				e.Outstanding(), e.Interchange().OutstandingByManager())
		}
	}
	if v, err := good.Result(); err != nil || v != "kept" {
		t.Fatalf("good task = %v, %v", v, err)
	}
	_, err := bad.Result()
	if err == nil || !strings.Contains(err.Error(), "result of task 2 is not serializable") ||
		!strings.Contains(err.Error(), "unregistered") {
		t.Fatalf("bad task error = %v; want one naming the task and the type", err)
	}
	waitCond(t, "broker drained", func() bool {
		if e.Outstanding() != 0 {
			return false
		}
		for _, n := range e.Interchange().OutstandingByManager() {
			if n != 0 {
				return false
			}
		}
		return true
	})
}

// TestRoundTripAllocationCeiling guards the whole wire path — client,
// interchange, manager and back over a zero-latency simnet, background
// heartbeats included — against starting to allocate again: one task at a
// time, the shape in which every frame carries one task and so every
// per-frame allocation is a per-task allocation. The ceiling sits a little
// above what the path costs today: 18 per trip, down from 99 with the gob
// stream and 51 before mq read each frame into one buffer. Eight are mq's:
// the part list and the shared body of each of the four frames (simnet's
// pipe allocates nothing once its buffer is sized). Three are the
// interchange's fair queue (the tenant's flow, made again each time the
// queue empties, its item array, and the batch put back), two the client's
// future and wire-task slices, two the future and its done channel, two the
// worker's decoded argument list and boxed value; heartbeats are the rest.
// A change that shrinks frames — the result-flush timer going — inherits the
// guard.
func TestRoundTripAllocationCeiling(t *testing.T) {
	e := newHTEX(t, 1, 2, func(cfg *Config) { cfg.Manager.FlushInterval = 200 * time.Microsecond })
	id := int64(0)
	trip := func() {
		// The same argument every trip, so the manager's digest advert (and
		// with it the cost of a heartbeat) stays one entry long however many
		// heartbeats a slow runner fits into the measurement.
		id++
		p, err := serialize.EncodeArgs([]any{1000}, nil)
		if err != nil {
			t.Fatal(err)
		}
		m := serialize.TaskMsg{ID: id, App: "echo"}
		m.AttachPayload(p)
		v, err := e.Submit(m).Result()
		p.Release()
		if err != nil || v != 1000 {
			t.Fatalf("trip %d = %v, %v", id, v, err)
		}
	}
	for i := 0; i < 50; i++ { // warm the pools, the intern tables, the frame buffers
		trip()
	}
	const trips = 300
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < trips; i++ {
		trip()
	}
	runtime.ReadMemStats(&after)
	perTrip := float64(after.Mallocs-before.Mallocs) / trips
	t.Logf("%.1f allocations per single-task round trip", perTrip)
	const ceiling = 22
	if perTrip > ceiling {
		t.Fatalf("%.1f allocations per single-task round trip, ceiling %d", perTrip, ceiling)
	}
}

// TestDroppedAndDuplicatedFramesAreRepaired: frames are numbered, so a frame
// the transport lost is noticed when the next one arrives — the receiver
// NACKs, the sender resyncs and retransmits (or requeues) — and a frame
// delivered twice is recognised and ignored. The gob stream noticed neither:
// its steady-state frames decoded the same whatever had gone missing before
// them, and a dropped frame's tasks waited for the attempt timeout. (A drop
// with no successor on its stream still does; and the relay leg keeps no
// results to resend, so it is not exercised here.)
func TestDroppedAndDuplicatedFramesAreRepaired(t *testing.T) {
	for _, point := range []chaos.Point{chaos.PointClientSend, chaos.PointIxTasks} {
		inj := corruptionHarness(t, chaos.Plan{
			{Point: point, Act: chaos.ActDrop, Prob: 1, Max: 1, After: 3},
			{Point: point, Act: chaos.ActDup, Prob: 0.3},
		}, 40, func(cfg *Config) {
			// Room to spare, so the tasks of one lost TASKS frame cannot hold
			// every slot of their manager and starve it of a next frame.
			cfg.Manager.Prefetch = 30
		})
		if inj.Fires(point) < 2 {
			t.Fatalf("%s: %d faults fired — test exercised nothing", point, inj.Fires(point))
		}
	}
}
