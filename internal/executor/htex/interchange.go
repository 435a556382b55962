package htex

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/fair"
	"repro/internal/mq"
	"repro/internal/serialize"
	"repro/internal/simnet"
)

// clientIdentity is the dealer identity of the executor client.
const clientIdentity = "htex-client"

// Selection is the manager-selection policy for task dispatch.
type Selection int

const (
	// SelectRandom is the paper's policy: "a randomized selection method
	// to ensure task distribution fairness" (§4.3.1).
	SelectRandom Selection = iota
	// SelectRoundRobin cycles deterministically — the ablation arm.
	SelectRoundRobin
)

// InterchangeConfig tunes the broker.
type InterchangeConfig struct {
	// Label names this interchange instance for the chaos plane and shard
	// diagnostics ("htex[2]"). The sharded client fills it per shard so
	// fault rules and LOST reports can address one shard; a standalone
	// interchange may leave it empty.
	Label string
	// BatchSize caps tasks per dispatch message to one manager.
	BatchSize int
	// HeartbeatPeriod is how often liveness is checked.
	HeartbeatPeriod time.Duration
	// HeartbeatThreshold is silence after which a manager is declared lost.
	HeartbeatThreshold time.Duration
	// Seed fixes the randomized manager selection for tests (0 = time).
	Seed int64
	// Selection picks the dispatch policy (default SelectRandom).
	Selection Selection
	// Locality enables data-aware dispatch: a task whose input digest some
	// eligible manager holds (it returned a result for those exact input
	// bytes) is routed to that manager instead of the fairness pick,
	// provided it has free capacity. Off by default — the holdings are still
	// recorded (they feed the client-side locality view either way), but
	// manager selection stays exactly the paper's randomized policy.
	Locality bool
}

// Validate rejects configurations that cannot work: negative durations and a
// threshold at or below the check period (a manager would be declared lost
// between two liveness checks). Zero values are fine — normalize fills them.
func (c InterchangeConfig) Validate() error {
	if c.BatchSize < 0 {
		return fmt.Errorf("htex: interchange BatchSize %d is negative", c.BatchSize)
	}
	if c.HeartbeatPeriod < 0 {
		return fmt.Errorf("htex: interchange HeartbeatPeriod %v is negative", c.HeartbeatPeriod)
	}
	if c.HeartbeatThreshold < 0 {
		return fmt.Errorf("htex: interchange HeartbeatThreshold %v is negative", c.HeartbeatThreshold)
	}
	if c.HeartbeatPeriod > 0 && c.HeartbeatThreshold > 0 && c.HeartbeatThreshold <= c.HeartbeatPeriod {
		return fmt.Errorf("htex: interchange HeartbeatThreshold %v must exceed HeartbeatPeriod %v",
			c.HeartbeatThreshold, c.HeartbeatPeriod)
	}
	return nil
}

func (c *InterchangeConfig) normalize() {
	if c.BatchSize <= 0 {
		c.BatchSize = 16
	}
	if c.HeartbeatPeriod <= 0 {
		c.HeartbeatPeriod = 200 * time.Millisecond
	}
	if c.HeartbeatThreshold <= 0 {
		c.HeartbeatThreshold = 5 * c.HeartbeatPeriod
	}
	if c.Seed == 0 {
		c.Seed = time.Now().UnixNano()
	}
}

// managerState is the interchange's view of one registered manager.
type managerState struct {
	id          string
	capacity    int // workers + prefetch slots
	outstanding map[int64]heldTask
	lastSeen    time.Time
	blacklisted bool
	// stream is the connection to the manager: its private TASKS stream out,
	// its RESULTS stream in. Encoding, decoding and NACKs go through it; the
	// record itself is read under ix.mu.
	stream peerStream
	// digests holds the content digests (serialize.Digest of the payload
	// column, the value the client's Payload.ArgsHash reports as text) of
	// the tasks this manager returned results for: the inputs it holds warm.
	// Bounded FIFO by maxDigests: digestRing holds them in insertion order,
	// filled once and then overwritten oldest first at digestNext. Written
	// only where a result releases its task.
	digests    map[uint64]struct{}
	digestRing []uint64
	digestNext int
}

// maxDigests bounds one manager's warm-digest record.
const maxDigests = 512

func (m *managerState) free() int { return m.capacity - len(m.outstanding) }

// noteDigest records a warm content digest, evicting the oldest entry once
// the record holds maxDigests. Caller holds ix.mu.
func (m *managerState) noteDigest(d uint64) {
	if _, ok := m.digests[d]; ok {
		return
	}
	if len(m.digestRing) < maxDigests {
		m.digestRing = append(m.digestRing, d)
	} else {
		delete(m.digests, m.digestRing[m.digestNext])
		m.digestRing[m.digestNext] = d
		m.digestNext = (m.digestNext + 1) % maxDigests
	}
	m.digests[d] = struct{}{}
}

// taskSend is one TASKS frame dispatch has decided on: a batch for one
// manager's stream.
type taskSend struct {
	m     *managerState
	batch []heldTask
}

// Interchange is the hub: it queues tasks from the client, matches them to
// managers with advertised capacity (random among eligible, §4.3.1), relays
// result batches back, and polices heartbeats. It brokers task envelopes
// (serialize.WireTask) exclusively: the argument payload inside is routed,
// queued, and re-framed as opaque bytes, never decoded or re-encoded here.
//
// A queued or outstanding task's payload aliases the TASKB frame it arrived
// in, so each holds a reference to that frame (heldTask): the reference moves
// with the task through dispatch, BYE and NACK requeues and locality
// reroutes, and is released when the task's result arrives, when it is
// canceled, or when it is reported LOST. Every other delivery is released
// once handle returns.
type Interchange struct {
	cfg    InterchangeConfig
	router *mq.Router
	rng    *rand.Rand

	// toClient is the client leg: RESULTS out, TASKB in. Of a result batch
	// arriving from a manager the interchange reads only the id column
	// (capacity and warm-digest bookkeeping); the result envelopes are
	// re-framed on this stream as opaque bytes, so the client holds exactly
	// one result stream regardless of how many managers feed it. Its peer is
	// the identity of the connected client, "" until it speaks: written on
	// the mainLoop goroutine under mu, and read elsewhere only under mu.
	toClient peerStream

	mu       sync.Mutex
	managers map[string]*managerState
	// managerCount is len(managers), stored under mu wherever managers
	// changes, so ManagerCount — read on every load-aware pick — takes no lock.
	managerCount atomic.Int32
	// queue holds tasks waiting for manager capacity. It is tenant-fair:
	// dispatch drains tenants by deficit round robin in proportion to the
	// weights carried on the wire envelopes, with priority ordering within
	// each tenant — so fairness established on the client leg holds past
	// the submission boundary too. Single-tenant traffic (the default)
	// drains in plain priority-then-arrival order, exactly as before.
	queue  *fair.Queue[heldTask]
	rrNext int // round-robin cursor (SelectRoundRobin)

	// Scratch owned by the mainLoop goroutine, the only one that decodes
	// frames and dispatches: the decode destinations of handle and the
	// working sets of dispatch keep their storage from one frame to the next.
	taskBatch []serialize.WireTask
	resultIDs []int64
	eligible  []*managerState
	batch     []heldTask
	wire      []serialize.WireTask
	sends     []taskSend

	done chan struct{}
	wg   sync.WaitGroup
}

// StartInterchange launches an interchange listening at addr on tr.
func StartInterchange(tr simnet.Transport, addr string, cfg InterchangeConfig) (*Interchange, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.normalize()
	r, err := mq.NewRouter(tr, addr)
	if err != nil {
		return nil, fmt.Errorf("htex: interchange: %w", err)
	}
	ix := &Interchange{
		cfg:    cfg,
		router: r,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		queue: fair.NewQueue(func(a, b heldTask) bool {
			return a.Priority > b.Priority
		}),
		toClient: newPeerStream(nil, r, "", tagResults, chaos.PointIxResults, cfg.Label),
		managers: make(map[string]*managerState),
		done:     make(chan struct{}),
	}
	ix.wg.Add(2)
	go ix.mainLoop()
	go ix.heartbeatLoop()
	return ix, nil
}

// Addr returns the interchange's bound address.
func (ix *Interchange) Addr() string { return ix.router.Addr() }

// Config reports the normalized configuration the interchange runs with —
// the values tests assert heartbeat plumbing against.
func (ix *Interchange) Config() InterchangeConfig { return ix.cfg }

func (ix *Interchange) mainLoop() {
	defer ix.wg.Done()
	for {
		select {
		case <-ix.done:
			return
		case ev := <-ix.router.Events():
			if !ev.Joined {
				ix.managerLost(ev.ID, "disconnected")
			}
		case del, ok := <-ix.router.Incoming():
			if !ok {
				return
			}
			ix.handle(del)
			del.Frame.Release()
		}
	}
}

func (ix *Interchange) handle(del mq.Delivery) {
	if len(del.Msg) == 0 {
		return
	}
	// Chaos: abrupt shard death while brokering — the router drops with no
	// goodbye, exactly as a crashed interchange process would. The detail is
	// this shard's label, so a Match-scoped rule kills one shard of a
	// sharded deployment and the failover invariant (only that shard's
	// outstanding set requeues) is seed-reproducible.
	if chaos.Kill(chaos.PointIxKill, ix.cfg.Label) {
		go ix.Close()
		return
	}
	switch string(del.Msg[0]) {
	case frameTaskSub:
		ix.setClient(del.From)
		if len(del.Msg) < 2 {
			return
		}
		ix.toClient.follow(del.Msg[1])
		if err := ix.toClient.dec.DecodeFrame(del.Msg[1], &ix.taskBatch); err != nil {
			ix.toClient.nack(del.Msg[1]) // the client retransmits its in-flight tasks (codec.go)
			return
		}
		for _, t := range ix.taskBatch {
			ix.enqueue(heldTask{t, del.Frame.Hold()})
		}
		clear(ix.taskBatch) // the queue owns the tasks now; keep only the storage
		ix.dispatch()
	case frameReg:
		if len(del.Msg) < 2 {
			return
		}
		capacity, ok := regCapacity(del.Msg[1])
		if !ok {
			return
		}
		ix.mu.Lock()
		ix.managers[del.From] = &managerState{
			id:          del.From,
			capacity:    capacity,
			outstanding: make(map[int64]heldTask),
			lastSeen:    time.Now(),
			stream:      newPeerStream(nil, ix.router, del.From, tagTasks, chaos.PointIxTasks, ix.cfg.Label),
			digests:     make(map[uint64]struct{}),
		}
		ix.managerCount.Store(int32(len(ix.managers)))
		ix.mu.Unlock()
		ix.dispatch()
	case frameResults:
		if len(del.Msg) < 2 {
			return
		}
		ix.mu.Lock()
		m := ix.managers[del.From]
		ix.mu.Unlock()
		if m == nil {
			// A sender with no record (gone by BYE or loss) has no stream:
			// everything it held was requeued or reported LOST when its
			// record went, so the frame has nothing left to deliver.
			return
		}
		results, err := m.stream.dec.DecodeResultIDs(del.Msg[1], &ix.resultIDs)
		if err != nil {
			// Undecodable manager result stream: NACK so the manager resets
			// its encoder, and requeue everything this manager holds — the
			// lost frame's results cannot be recovered, so their tasks must
			// re-execute, and the broker must not leak their capacity slots.
			// Tasks still running on the manager finish twice at most; the
			// client's inflight registry reconciles duplicates (codec.go).
			m.stream.nack(del.Msg[1])
			ix.requeueOutstanding(del.From)
			return
		}
		ix.mu.Lock()
		m.lastSeen = time.Now()
		// A returned result warms its manager for the task's exact input
		// bytes, whether the app succeeded or not: only the id column is
		// read here.
		for _, id := range ix.resultIDs {
			if t, ok := m.outstanding[id]; ok {
				m.noteDigest(serialize.Digest(t.P))
				delete(m.outstanding, id)
				t.f.Release()
			}
		}
		client := ix.toClient.peer
		ix.mu.Unlock()
		// results is nil for a duplicate frame: nothing to release or relay.
		if client != "" && results != nil {
			_ = ix.toClient.enc.RelayResults(results, ix.toClient.ship)
		}
		ix.dispatch()
	case frameHB:
		ix.mu.Lock()
		if m, ok := ix.managers[del.From]; ok {
			m.lastSeen = time.Now()
		}
		ix.mu.Unlock()
		// Echo so managers can police us too.
		_ = ix.router.SendTo(del.From, mq.Message{tagHB})
	case frameBye:
		ix.mu.Lock()
		m, ok := ix.managers[del.From]
		if ok {
			// Clean departure: requeue outstanding instead of failing.
			for _, t := range m.outstanding {
				ix.enqueue(t)
			}
			delete(ix.managers, del.From)
			ix.managerCount.Store(int32(len(ix.managers)))
		}
		ix.mu.Unlock()
		// Hang up on the peer so its Drain can observe the ack.
		ix.router.Disconnect(del.From)
		ix.dispatch()
	case frameCancel:
		if len(del.Msg) < 2 {
			return
		}
		ids, err := serialize.DecodeIDs(del.Msg[1])
		if err != nil {
			return
		}
		ix.cancel(ids)
	case frameCmd:
		ix.setClient(del.From)
		ix.command(del)
	case frameNack:
		if len(del.Msg) < 2 {
			return
		}
		ix.mu.Lock()
		m := ix.managers[del.From]
		isClient := del.From == ix.toClient.peer
		ix.mu.Unlock()
		switch {
		case m != nil:
			// The manager cannot decode its TASKS stream: requeue everything
			// it was holding — the lost frame's tasks never arrived, and the
			// interchange cannot tell which those were.
			if m.stream.resync(del.Msg[1]) {
				ix.requeueOutstanding(del.From)
			}
		case isClient:
			// The client cannot decode the RESULTS stream. Results in the
			// lost frame are gone; the DFK's attempt timeout re-executes
			// their tasks (codec.go), so the resync is the whole repair.
			ix.toClient.resync(del.Msg[1])
		}
	}
}

// requeueOutstanding moves every task a manager holds back into the
// interchange queue (stream-corruption repair; the clean-departure BYE path
// does its own inline requeue under the lock).
func (ix *Interchange) requeueOutstanding(id string) {
	ix.mu.Lock()
	m, ok := ix.managers[id]
	var tasks []heldTask
	if ok {
		for _, t := range m.outstanding {
			tasks = append(tasks, t)
		}
		m.outstanding = make(map[int64]heldTask)
	}
	ix.mu.Unlock()
	if len(tasks) == 0 {
		return
	}
	for _, t := range tasks {
		ix.enqueue(t)
	}
	ix.dispatch()
}

// setClient records the identity results are relayed to. Stream resync for
// a new client session is detected in-band from the epoch on its TASKB
// stream (peerStream.follow), since every client shares the same dealer
// identity.
func (ix *Interchange) setClient(from string) {
	ix.mu.Lock()
	ix.toClient.peer = from
	ix.mu.Unlock()
}

// cancel drops the named tasks: entries still in the interchange queue are
// removed outright; tasks already dispatched are struck from their manager's
// outstanding set (freeing its advertised capacity) and the drop is
// forwarded so the manager can skip them before they start. Tasks already
// running are beyond reach — their results arrive and are ignored client
// side.
func (ix *Interchange) cancel(ids []int64) {
	drop := make(map[int64]bool, len(ids))
	for _, id := range ids {
		drop[id] = true
	}
	forward := make(map[string][]int64)
	ix.mu.Lock()
	ix.queue.Filter(func(t heldTask) bool {
		if drop[t.ID] {
			t.f.Release()
			return false
		}
		return true
	})
	for _, m := range ix.managers {
		for id := range drop {
			if t, ok := m.outstanding[id]; ok {
				delete(m.outstanding, id)
				t.f.Release()
				forward[m.id] = append(forward[m.id], id)
			}
		}
	}
	ix.mu.Unlock()
	for mgr, mgrIDs := range forward {
		_ = ix.router.SendTo(mgr, mq.Message{tagCancel, serialize.EncodeIDs(mgrIDs)})
	}
	ix.dispatch() // struck tasks freed manager capacity
}

// command implements the synchronous administrative channel (§4.3.1):
// outstanding-task queries, manager listing, blacklisting, shutdown.
func (ix *Interchange) command(del mq.Delivery) {
	if len(del.Msg) < 2 {
		return
	}
	name := string(del.Msg[1])
	arg := ""
	if len(del.Msg) > 2 {
		arg = string(del.Msg[2])
	}
	reply := func(parts ...string) {
		m := mq.Message{tagCmdRep, []byte(name)}
		for _, p := range parts {
			m = append(m, []byte(p))
		}
		_ = ix.router.SendTo(del.From, m)
	}
	switch name {
	case "OUTSTANDING":
		ix.mu.Lock()
		n := ix.queue.Len()
		for _, m := range ix.managers {
			n += len(m.outstanding)
		}
		ix.mu.Unlock()
		reply(strconv.Itoa(n))
	case "MANAGERS":
		ix.mu.Lock()
		var ids []string
		for id := range ix.managers {
			ids = append(ids, id)
		}
		ix.mu.Unlock()
		reply(ids...)
	case "BLACKLIST":
		ix.mu.Lock()
		if m, ok := ix.managers[arg]; ok {
			m.blacklisted = true
		}
		ix.mu.Unlock()
		reply("ok")
	case "SHUTDOWN":
		reply("ok")
		go ix.Close()
	default:
		reply("unknown-command")
	}
}

// enqueue hands a task to the tenant-fair interchange queue, keyed by the
// tenant and weight its wire envelope carries. Within a tenant, dispatch
// order honors the wire-carried priority (stable, so equal priorities
// dispatch in arrival order); across tenants, deficit round robin applies.
// The queue locks internally; callers need not hold ix.mu.
func (ix *Interchange) enqueue(t heldTask) { ix.queue.Push(t.Tenant, t.Weight, t) }

// dispatch matches queued tasks to managers with advertised free capacity,
// choosing uniformly at random among eligible managers for distribution
// fairness (§4.3.1) and draining the queue tenant-fairly for share fairness.
func (ix *Interchange) dispatch() {
	for {
		ix.mu.Lock()
		// Empty-queue check before manager selection: an idle-queue poke
		// (result or heartbeat frames trigger dispatch too) must not
		// advance the round-robin cursor, or rotation order would depend
		// on arrival timing.
		if ix.queue.Len() == 0 {
			ix.mu.Unlock()
			return
		}
		eligible := ix.eligible[:0]
		for _, m := range ix.managers {
			if !m.blacklisted && m.free() > 0 {
				eligible = append(eligible, m)
			}
		}
		ix.eligible = eligible
		if len(eligible) == 0 {
			ix.mu.Unlock()
			return
		}
		var m *managerState
		if ix.cfg.Selection == SelectRoundRobin {
			// Stable order for determinism: sort by identity.
			sort.Slice(eligible, func(i, j int) bool { return eligible[i].id < eligible[j].id })
			m = eligible[ix.rrNext%len(eligible)]
			ix.rrNext++
		} else {
			m = eligible[ix.rng.Intn(len(eligible))]
		}
		n := m.free()
		if n > ix.cfg.BatchSize {
			n = ix.cfg.BatchSize
		}
		scratch := ix.queue.TryTake(n)
		if len(scratch) == 0 {
			ix.mu.Unlock()
			return
		}
		// Copy out of the pooled scratch: the frame encode below runs
		// outside ix.mu and must not hold pooled storage.
		batch := append(ix.batch[:0], scratch...)
		ix.batch = batch
		ix.queue.PutBatch(scratch)

		// Data-aware rerouting (cfg.Locality): a task whose input digest
		// another eligible manager holds moves to that holder — its inputs
		// are warm there — capped by the holder's free capacity. The
		// fairness pick m keeps everything else, so with no holdings in play
		// the dispatch is byte-identical to the classic policy. The digest
		// is hashed from the opaque payload column; the broker still never
		// decodes arguments.
		sends := ix.sends[:0]
		if ix.cfg.Locality && len(eligible) > 1 {
			taken := make(map[*managerState]int)
			reroutes := make(map[*managerState][]heldTask)
			kept := batch[:0]
			for _, t := range batch {
				d := serialize.Digest(t.P)
				if _, warm := m.digests[d]; warm {
					kept = append(kept, t)
					continue
				}
				var holder *managerState
				for _, cand := range eligible {
					if cand == m {
						continue
					}
					if _, ok := cand.digests[d]; ok && cand.free()-taken[cand] > 0 {
						holder = cand
						break
					}
				}
				if holder == nil {
					kept = append(kept, t)
					continue
				}
				taken[holder]++
				holder.outstanding[t.ID] = t
				reroutes[holder] = append(reroutes[holder], t)
			}
			batch = kept
			for h, ts := range reroutes {
				sends = append(sends, taskSend{m: h, batch: ts})
			}
		}
		for _, t := range batch {
			m.outstanding[t.ID] = t
		}
		if len(batch) > 0 {
			sends = append(sends, taskSend{m: m, batch: batch})
		}
		// The encode below runs outside ix.mu, where the heartbeat loop may
		// report a target manager LOST and release its tasks' references:
		// the sends hold their own until the payloads are framed.
		for _, s := range sends {
			for _, t := range s.batch {
				t.f.Hold()
			}
		}
		ix.sends = sends
		ix.mu.Unlock()

		// Re-frame the envelopes on each target manager's stream; the
		// argument payloads inside pass through as opaque bytes.
		for _, s := range sends {
			wire := ix.wire[:0]
			for _, t := range s.batch {
				wire = append(wire, t.WireTask)
			}
			ix.wire = wire
			err := s.m.stream.enc.EncodeTasks(wire, s.m.stream.ship)
			for _, t := range s.batch {
				t.f.Release()
			}
			if err != nil {
				// Send failed: the manager is gone; requeue via loss path.
				ix.managerLost(s.m.id, "send failed")
			}
		}
		// An idle interchange must not pin the frames its last batch's
		// payloads alias.
		clear(sends)
		clear(ix.batch)
		clear(ix.wire)
	}
}

// heartbeatLoop expires silent managers.
func (ix *Interchange) heartbeatLoop() {
	defer ix.wg.Done()
	ticker := time.NewTicker(ix.cfg.HeartbeatPeriod)
	defer ticker.Stop()
	for {
		select {
		case <-ix.done:
			return
		case <-ticker.C:
			ix.mu.Lock()
			var lost []string
			for id, m := range ix.managers {
				if time.Since(m.lastSeen) > ix.cfg.HeartbeatThreshold {
					lost = append(lost, id)
				}
			}
			ix.mu.Unlock()
			for _, id := range lost {
				ix.managerLost(id, "heartbeat expired")
			}
		}
	}
}

// managerLost handles a lost manager: its outstanding tasks are reported to
// the client as LOST so the DFK can retry or rescale (§4.3.1).
func (ix *Interchange) managerLost(id, reason string) {
	ix.mu.Lock()
	m, ok := ix.managers[id]
	if !ok {
		ix.mu.Unlock()
		return
	}
	delete(ix.managers, id)
	ix.managerCount.Store(int32(len(ix.managers)))
	var lostIDs []int64
	for tid, t := range m.outstanding {
		lostIDs = append(lostIDs, tid)
		t.f.Release()
	}
	clear(m.outstanding)
	client := ix.toClient.peer
	ix.mu.Unlock()

	ix.router.Disconnect(id)
	if client != "" && len(lostIDs) > 0 {
		// Fourth part: the lost manager's identity, so the client-side
		// LostError names which manager died — the health plane's poison
		// quarantine counts distinct managers a task has killed.
		_ = ix.router.SendTo(client, mq.Message{tagLost, serialize.EncodeIDs(lostIDs), []byte(reason), []byte(id)})
	}
}

// ManagerCount reports registered managers without taking the broker lock:
// load-aware routing reads it on every pick.
func (ix *Interchange) ManagerCount() int { return int(ix.managerCount.Load()) }

// OutstandingByManager reports in-flight tasks per manager — what scale-in
// uses to prefer idle blocks.
func (ix *Interchange) OutstandingByManager() map[string]int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	out := make(map[string]int, len(ix.managers))
	for id, m := range ix.managers {
		out[id] = len(m.outstanding)
	}
	return out
}

// HasDigest reports whether any registered, non-blacklisted manager holds
// the content digest d (16 hex digits, Payload.ArgsHash's form) — this
// shard's slice of the locality view. A holding is recorded the moment its
// result is released and forgotten with its manager; callers still treat
// the answer as a routing hint, never a correctness signal.
func (ix *Interchange) HasDigest(d string) bool {
	sum, err := strconv.ParseUint(d, 16, 64)
	if err != nil {
		return false
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for _, m := range ix.managers {
		if m.blacklisted {
			continue
		}
		if _, ok := m.digests[sum]; ok {
			return true
		}
	}
	return false
}

// QueueDepth reports tasks waiting for capacity.
func (ix *Interchange) QueueDepth() int { return ix.queue.Len() }

// Close shuts the interchange down.
func (ix *Interchange) Close() error {
	select {
	case <-ix.done:
		return nil
	default:
	}
	close(ix.done)
	err := ix.router.Close()
	ix.wg.Wait()
	return err
}
