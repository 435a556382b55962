package htex

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/future"
	"repro/internal/mq"
	"repro/internal/serialize"
	"repro/internal/simnet"
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
// above what the path costs today: 6 per trip, down from 99 with the gob
// stream, 51 before mq read each frame into one buffer, 18 before the fair
// queues kept their drained flows and batches, the client its wire-task
// slice, and the client's receive loop one frame's storage, and 12 before
// every leg received its frames into storage a released frame gave back.
// What is left:
//   - none are mq's: the interchange releases a TASKB frame when the task's
//     result arrives, the manager a TASKS frame when the worker is done with
//     the task, and every other frame once it is handled, so each leg's next
//     frame is parsed into the part list and body of one released before it;
//   - two are the future and its done channel, made by the test's direct
//     Submit (the DFK settles the future it already holds);
//   - one is Submit's future slice;
//   - two are the worker's decoded argument list and its boxed value;
//   - heartbeats are the rest.
//
// A change that shrinks frames — the result-flush timer going — inherits the
// guard. Not under -race: there sync.Pool drops a quarter of its puts.
func TestRoundTripAllocationCeiling(t *testing.T) {
	if raceDetector() {
		t.Skip("allocation counts under -race measure the detector's sync.Pool, not the wire path")
	}
	e := newHTEX(t, 1, 2, func(cfg *Config) { cfg.Manager.FlushInterval = 200 * time.Microsecond })
	id := int64(0)
	trip := func() {
		// The same argument every trip, so the interchange's warm-digest
		// record holds one entry and neither grows nor evicts during the
		// measurement.
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
	const ceiling = 7
	if perTrip > ceiling {
		t.Fatalf("%.1f allocations per single-task round trip, ceiling %d", perTrip, ceiling)
	}
}

// TestShardedBatchAllocationCeiling guards the sharded half of SubmitInto:
// a 16-task batch round trip at three shards may cost at most 1 allocation
// more than at one. The client's own share of that is nothing — placement is
// recorded on the stack and each shard's partition is framed from the pooled
// wire scratch — and neither is mq's, whose extra frames, one per owning
// shard on each leg instead of one, are received into storage released
// frames gave back. It reads 68.4–69.0 per batch at one shard and 68.1–68.2
// at three; the extra was 7.4 when every received frame allocated its part
// list and body, and 21.5 when the sharded path also allocated its
// placement, its wire-to-shard index and one bucket per owning shard for
// every batch. Not under -race: there sync.Pool drops a quarter of its puts.
func TestShardedBatchAllocationCeiling(t *testing.T) {
	if raceDetector() {
		t.Skip("allocation counts under -race measure the detector's sync.Pool, not the submit path")
	}
	perBatch := func(shards int) float64 {
		e := newHTEX(t, shards, 2, func(cfg *Config) {
			cfg.Shards = shards
			cfg.Manager.FlushInterval = 200 * time.Microsecond
		})
		waitCond(t, "every shard has a manager", func() bool {
			return !slices.Contains(managersPerShard(e), 0)
		})
		defer e.Shutdown()
		id := int64(0)
		msgs := make([]serialize.TaskMsg, 16)
		batch := func() {
			for i := range msgs {
				id++
				p, err := serialize.EncodeArgs([]any{1000}, nil)
				if err != nil {
					t.Fatal(err)
				}
				msgs[i] = serialize.TaskMsg{ID: id, App: "echo"}
				msgs[i].AttachPayload(p)
			}
			for i, f := range e.SubmitBatch(msgs) {
				v, err := f.Result()
				msgs[i].Payload().Release()
				if err != nil || v != 1000 {
					t.Fatalf("task %d = %v, %v", msgs[i].ID, v, err)
				}
			}
		}
		for i := 0; i < 50; i++ { // warm the pools, the intern tables, the frame buffers
			batch()
		}
		const batches = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < batches; i++ {
			batch()
		}
		runtime.ReadMemStats(&after)
		n := float64(after.Mallocs-before.Mallocs) / batches
		t.Logf("%.1f allocations per 16-task batch round trip at %d shards", n, shards)
		return n
	}
	one, three := perBatch(1), perBatch(3)
	const ceiling = 1
	if extra := three - one; extra > ceiling {
		t.Fatalf("three shards cost %.1f allocations per 16-task batch more than one, ceiling %d", extra, ceiling)
	}
}

// raceDetector reports whether this test binary was built with -race.
func raceDetector() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
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

// TestCommandReplySurvivesNextFrame: the client's receive loop reads every
// frame into storage the next receive overwrites, so the one frame it hands
// to another goroutine — a command reply, which Command reads — must be a
// copy. A fake interchange sends a reply and, at once, a RESULTS frame; once
// the result has settled its future the loop has read the second frame over
// the first, and the reply must still read as sent.
func TestCommandReplySurvivesNextFrame(t *testing.T) {
	netw := simnet.NewNetwork(0)
	router, err := mq.NewRouter(netw, ":0")
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	dealer, err := mq.DialDealer(netw, router.Addr(), clientIdentity)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-router.Events():
	case <-time.After(5 * time.Second):
		t.Fatal("client dealer never joined")
	}

	e := New(Config{Transport: netw})
	e.started = true
	s := &shardLink{label: "htex[0]", cmdReplies: make(chan mq.Message, 16)}
	s.conn.Store(&shardConn{stream: newPeerStream(dealer, nil, "", tagTaskSub, chaos.PointClientSend, s.label)})
	e.shards = []*shardLink{s}
	fut := future.NewForTask(1)
	e.inflight[1] = inflightTask{fut: fut}
	e.outstanding.Add(1)
	e.wg.Add(1)
	go e.recvLoop(s, s.conn.Load())
	defer func() {
		e.mu.Lock()
		e.closed = true
		e.mu.Unlock()
		_ = dealer.Close()
		e.wg.Wait()
	}()

	reply := mq.Message{tagCmdRep, []byte("OUTSTANDING"), []byte("3"), []byte("7")}
	if err := router.SendTo(clientIdentity, reply); err != nil {
		t.Fatal(err)
	}
	results := []serialize.ResultMsg{{ID: 1, Value: "a result at least as long as the reply it follows"}}
	if err := serialize.NewStreamEncoder().EncodeResults(results, func(fr []byte) error {
		return router.SendTo(clientIdentity, mq.Message{tagResults, fr})
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-fut.DoneChan():
	case <-time.After(5 * time.Second):
		t.Fatal("the RESULTS frame after the reply never settled its future")
	}
	rep, ok := s.awaitReply("OUTSTANDING", 100*time.Millisecond)
	if !ok {
		t.Fatal("the command reply was overwritten by the frame after it")
	}
	if fmt.Sprintf("%q", rep) != fmt.Sprintf("%q", reply) {
		t.Fatalf("command reply reads %q, sent %q", rep, reply)
	}
}

// TestInterchangeReclaimsOneShotTenants: 10 000 tenants that each submit one
// task and never return leave no backlog entry behind, and the live heap
// stays where it was once the first thousands had passed — the fair queue
// keeps a bounded number of spare flows, not one per tenant ever seen.
func TestInterchangeReclaimsOneShotTenants(t *testing.T) {
	e := newHTEX(t, 1, 8, func(cfg *Config) { cfg.Manager.FlushInterval = 200 * time.Microsecond })
	const tenants, wave = 10_000, 500
	next := 0
	run := func(n int) {
		for end := next + n; next < end; {
			msgs := make([]serialize.TaskMsg, wave)
			for i := range msgs {
				msgs[i] = serialize.TaskMsg{ID: int64(next), App: "echo", Args: []any{1}, Tenant: fmt.Sprintf("user-%d", next)}
				next++
			}
			for _, f := range e.SubmitBatch(msgs) {
				if _, err := f.Result(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	// Warm-up fills the codecs' bounded intern tables and sizes every map
	// at the wave's peak.
	run(2_000)
	before := heap()
	run(tenants - 2_000)
	after := heap()
	if depth := e.Interchange().queue.PerTenant(); depth != nil {
		t.Fatalf("backlog after every tenant finished: %v", depth)
	}
	t.Logf("live heap %d KiB after %d tenants, %d KiB after %d", before>>10, 2_000, after>>10, tenants)
	if after > before+256<<10 {
		t.Fatalf("live heap grew %d KiB over %d one-shot tenants", (after-before)>>10, tenants-2_000)
	}
}
