package htex

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/executor"
	"repro/internal/future"
	"repro/internal/mq"
	"repro/internal/provider"
	"repro/internal/serialize"
	"repro/internal/simnet"
)

// Config assembles a complete HTEX deployment: the interchange settings, the
// per-node manager settings, and the provider that places managers on nodes.
type Config struct {
	Label     string
	Transport simnet.Transport
	// Addr is where the interchange listens ("" lets simnet auto-assign;
	// use "127.0.0.1:0" over TCP). With Shards > 1 the address must be an
	// auto-assign form — N routers cannot share one fixed port.
	Addr        string
	Registry    *serialize.Registry
	Provider    provider.Provider
	InitBlocks  int
	Manager     ManagerConfig
	Interchange InterchangeConfig
	// Shards is how many interchange shards form this one logical executor
	// (default 1, at most 32767). The client runs N independent
	// interchanges, places managers and tasks onto them by rendezvous hash
	// (tenant-affine; see taskShard), sends each submitted batch as one
	// frame per owning shard, and reconciles results, LOST, and CANCEL
	// traffic from all of them; N = 1, the single-broker deployment, is the
	// same code with placement a constant. Each shard preserves every
	// single-broker invariant — per-shard queues, heartbeats, NACK resync —
	// and a shard death requeues only that shard's outstanding set while the
	// others keep draining.
	Shards int
	// PayloadFactory overrides what runs on each provisioned node. The
	// default starts a Manager; EXEX starts one whose exec step feeds an MPI
	// worker pool (§4.3.2's hierarchical model).
	PayloadFactory func(interchangeAddr string, node provider.Node) (stop func(), err error)
}

// shardConn is one shard's live connection state: the broker, and the
// stream over the client dealer connected to it (TASKB out, RESULTS in). It
// sits behind an atomic pointer on shardLink so RestoreShard can swap a
// respawned broker in without racing the receive loop, the senders, or
// monitoring probes still holding the previous connection.
type shardConn struct {
	ix     *Interchange
	stream peerStream
}

// shardLink is the client's handle to one interchange shard: the current
// connection (swappable on restore), the command-reply channel, and the
// shard's liveness. Everything here is per-shard because the invariants are
// per-shard: a NACK resyncs one shard's stream, a death fails one shard's
// inflight.
type shardLink struct {
	idx        int
	label      string // "htex[0]" — the shard's chaos/LOST identity
	conn       atomic.Pointer[shardConn]
	cmdReplies chan mq.Message
	// down is the shard's liveness, and its only record: set by the death
	// path (shardDown), cleared when RestoreShard brings a respawned broker
	// back. Placement, ShardCounts and every merged probe read it.
	down atomic.Bool
	// lost counts the attempts failed on this shard's account: its death scan
	// (shardDown) plus the batches its dead endpoint refused (sendOrFail).
	lost atomic.Int64
}

// broker returns the shard's current interchange.
func (s *shardLink) broker() *Interchange { return s.conn.Load().ix }

// inflightTask is one submitted-but-unresolved task: its future, the message
// a NACK retransmits, and the shard it was placed on — the shard is what lets
// a NACK retransmit or a shard death touch exactly the affected subset of the
// inflight registry.
type inflightTask struct {
	msg   serialize.TaskMsg
	fut   *future.Future
	shard int
}

// Executor is the HTEX client-side executor: it owns the interchange shards,
// tracks submitted tasks, and scales blocks of managers through its provider.
type Executor struct {
	cfg Config

	shards []*shardLink

	mu        sync.Mutex
	inflight  map[int64]inflightTask // every submitted-but-unresolved task
	blocks    []string
	blockMgrs map[string][]string // block id -> manager identities
	mgrShard  map[string]int      // manager identity -> shard index
	mgrSeq    int64
	started   bool
	closed    bool

	cmdMu sync.Mutex

	// wires pools SubmitInto's wire-envelope scratch (*[]serialize.WireTask):
	// a batch is framed synchronously, so the slice is free again, and
	// cleared, once the call returns.
	wires sync.Pool

	outstanding atomic.Int64
	wg          sync.WaitGroup
}

// New creates an HTEX executor. Start launches the interchange shards and
// the initial blocks.
func New(cfg Config) *Executor {
	if cfg.Label == "" {
		cfg.Label = "htex"
	}
	if cfg.Transport == nil {
		cfg.Transport = simnet.NewNetwork(0)
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Addr == "" {
		cfg.Addr = ":0" // the transports' auto-assign form
	}
	return &Executor{
		cfg:       cfg,
		inflight:  make(map[int64]inflightTask),
		blockMgrs: make(map[string][]string),
		mgrShard:  make(map[string]int),
	}
}

// Label implements executor.Executor.
func (e *Executor) Label() string { return e.cfg.Label }

// Interchange exposes shard 0's broker (tests and monitoring; the whole
// broker when sharding is off). Shard addresses the others.
func (e *Executor) Interchange() *Interchange { return e.shards[0].broker() }

// Shard exposes shard i's broker, nil when out of range.
func (e *Executor) Shard(i int) *Interchange {
	if i < 0 || i >= len(e.shards) {
		return nil
	}
	return e.shards[i].broker()
}

// ShardCount reports the configured shard count.
func (e *Executor) ShardCount() int { return len(e.shards) }

// ShardCounts reports (alive, total) shards — the executor's one shard
// liveness probe.
func (e *Executor) ShardCounts() (alive, total int) {
	for _, s := range e.shards {
		if !s.down.Load() {
			alive++
		}
	}
	return alive, len(e.shards)
}

// Start implements executor.Executor: bring up the interchange shards,
// connect one client dealer per shard, and provision InitBlocks.
func (e *Executor) Start() error {
	e.mu.Lock()
	if e.started {
		e.mu.Unlock()
		return nil
	}
	e.started = true
	e.mu.Unlock()

	if err := e.cfg.Manager.Validate(); err != nil {
		return err
	}
	if err := e.cfg.Interchange.Validate(); err != nil {
		return err
	}
	// Cross-check the two heartbeat clocks after normalization: a manager
	// that pings slower than the interchange's loss threshold would be
	// declared dead while perfectly healthy. The check applies to custom
	// PayloadFactory pools too — what they start on the nodes is a Manager
	// running with this ManagerConfig (EXEX passes the one mapping of its
	// pool config both here and to its pools), and the interchange polices
	// the threshold regardless of what executes behind the manager.
	mgrCfg, ixCfg := e.cfg.Manager, e.cfg.Interchange
	mgrCfg.normalize()
	ixCfg.normalize()
	if mgrCfg.HeartbeatPeriod >= ixCfg.HeartbeatThreshold {
		return fmt.Errorf("htex: manager HeartbeatPeriod %v must be below interchange HeartbeatThreshold %v",
			mgrCfg.HeartbeatPeriod, ixCfg.HeartbeatThreshold)
	}

	n := e.cfg.Shards
	if n > math.MaxInt16 { // SubmitInto records a task's shard in an int16
		return fmt.Errorf("htex: %d shards, at most %d", n, math.MaxInt16)
	}
	if n > 1 && !strings.HasSuffix(e.cfg.Addr, ":0") {
		return fmt.Errorf("htex: %d shards cannot share fixed address %q (use an auto-assign :0 form)", n, e.cfg.Addr)
	}

	e.shards = make([]*shardLink, 0, n)
	for i := 0; i < n; i++ {
		s := &shardLink{
			idx:        i,
			label:      fmt.Sprintf("%s[%d]", e.cfg.Label, i),
			cmdReplies: make(chan mq.Message, 16),
		}
		c, err := e.openShard(s)
		if err != nil {
			for _, up := range e.shards {
				opened := up.conn.Load()
				_ = opened.stream.dealer.Close()
				_ = opened.ix.Close()
			}
			return err
		}
		s.conn.Store(c)
		e.shards = append(e.shards, s)
		e.wg.Add(1)
		go e.recvLoop(s, c)
	}

	for i := 0; i < e.cfg.InitBlocks; i++ {
		if err := e.ScaleOut(1); err != nil {
			return err
		}
	}
	return nil
}

// openShard brings up one shard's connection state — what Start builds for
// every shard and RestoreShard rebuilds for a dead one: an interchange under
// the shard's label, and a fresh stream over the client dealer to it.
func (e *Executor) openShard(s *shardLink) (*shardConn, error) {
	ixCfg := e.cfg.Interchange
	ixCfg.Label = s.label
	if ixCfg.Seed != 0 {
		// Decorrelate the shards' manager-selection streams while keeping
		// the whole deployment a pure function of the configured seed.
		ixCfg.Seed += int64(s.idx)
	}
	ix, err := StartInterchange(e.cfg.Transport, e.cfg.Addr, ixCfg)
	if err != nil {
		return nil, fmt.Errorf("htex: open %s: %w", ixCfg.Label, err)
	}
	dealer, err := mq.DialDealer(e.cfg.Transport, ix.Addr(), clientIdentity)
	if err != nil {
		_ = ix.Close()
		return nil, fmt.Errorf("htex: open %s: client dial: %w", ixCfg.Label, err)
	}
	return &shardConn{ix: ix, stream: newPeerStream(dealer, nil, "", tagTaskSub, chaos.PointClientSend, s.label)}, nil
}

// recvLoop reconciles one shard's traffic: results, LOST reports, command
// replies, and NACKs all resolve against the shared inflight registry,
// so N shards look like one executor to everything above. A
// receive error outside shutdown means the shard's router is gone — the
// shard-death rebalance path. The loop is bound to c, the connection its
// launcher has just stored in s: passed rather than loaded here, since a
// RestoreShard swap could land before this goroutine starts and two loops
// would then read one connection. A swap starts a fresh loop, and this one
// exits without reporting a death that belongs to the connection it was
// reading.
func (e *Executor) recvLoop(s *shardLink, c *shardConn) {
	defer e.wg.Done()
	var results []serialize.ResultMsg // decode destination, reused frame to frame
	for {
		f, err := c.stream.dealer.RecvFrame()
		if err != nil {
			e.mu.Lock()
			closed := e.closed
			e.mu.Unlock()
			if !closed && s.conn.Load() == c {
				e.shardDown(s)
			}
			return
		}
		e.receive(s, c, f.Msg, &results)
		f.Release()
	}
}

// receive acts on one frame of shard s's connection c. Nothing outlives the
// call: results are decoded into copies, LOST ids and details copied out, and
// a command reply, which crosses to Command's goroutine, is copied first.
func (e *Executor) receive(s *shardLink, c *shardConn, msg mq.Message, results *[]serialize.ResultMsg) {
	if len(msg) == 0 {
		return
	}
	switch string(msg[0]) {
	case frameResults:
		if len(msg) < 2 {
			return
		}
		if err := c.stream.dec.DecodeFrame(msg[1], results); err != nil {
			// The shard resyncs its RESULTS stream. Tasks whose results
			// rode the lost frame stay inflight here and recover via the
			// DFK's attempt timeout (see codec.go).
			c.stream.nack(msg[1])
			return
		}
		for _, r := range *results {
			e.complete(r)
		}
		clear(*results) // the futures own the values now; keep only the storage
	case frameLost:
		if len(msg) < 2 {
			return
		}
		ids, err := serialize.DecodeIDs(msg[1])
		if err != nil {
			return
		}
		detail := "manager lost"
		if len(msg) > 2 {
			detail = string(msg[2])
		}
		mgr := ""
		if len(msg) > 3 {
			mgr = string(msg[3])
		}
		for _, id := range ids {
			e.fail(id, &executor.LostError{TaskID: id, Detail: detail, Manager: mgr})
		}
	case frameCmdRep:
		reply := make(mq.Message, len(msg))
		for i, p := range msg {
			reply[i] = bytes.Clone(p)
		}
		select {
		case s.cmdReplies <- reply:
		default:
		}
	case frameNack:
		if len(msg) >= 2 && c.stream.resync(msg[1]) {
			e.retransmit(s, c)
		}
	}
}

// shardDown is the rebalance-on-death path: mark the shard down (placement
// then vetoes it, so its keys fall to their next-ranked shards and everyone
// else's placement is untouched), and fail exactly the tasks that were
// inflight on it. Those failures surface as LostError naming the shard, so
// the DFK's retry plane re-executes only the dead shard's outstanding set —
// the other shards' queues and inflight tasks never notice. Idempotent: the
// receive loop and KillShard may both report the same death.
func (e *Executor) shardDown(s *shardLink) {
	if !s.down.CompareAndSwap(false, true) {
		return
	}
	e.mu.Lock()
	var lost []int64
	for id, it := range e.inflight {
		if it.shard == s.idx {
			lost = append(lost, id)
		}
	}
	// The shard's managers died with it: forget their placement, or the
	// bounded-load cap would count them against the shard once restored.
	for id, si := range e.mgrShard {
		if si == s.idx {
			delete(e.mgrShard, id)
		}
	}
	e.mu.Unlock()
	s.lost.Add(int64(len(lost)))
	for _, id := range lost {
		e.fail(id, &executor.LostError{TaskID: id, Detail: "interchange shard lost", Manager: s.label})
	}
}

// KillShard abruptly closes shard i's interchange — no goodbye to the client
// or its managers — and runs the death path synchronously. This is the
// failover hook the shard chaos scenario drives; production deaths take the
// same shardDown road via the receive loop's error. Returns false when i is
// out of range or the shard is already down.
func (e *Executor) KillShard(i int) bool {
	if i < 0 || i >= len(e.shards) {
		return false
	}
	s := e.shards[i]
	if s.down.Load() {
		return false
	}
	_ = s.broker().Close()
	e.shardDown(s)
	return true
}

// RestoreShard respawns a dead shard: a fresh interchange, a fresh dealer
// connection with a fresh stream, and the down flag cleared so the keys
// that spilled to their next-ranked shards flow back home once it has
// managers again. The restored broker starts empty — managers
// reach it through the next ScaleOut, exactly as a respawned broker process
// would in production — and the tasks the death path failed stay with their
// retry plane. No-op when the shard is alive; error when the executor is
// stopped or i is out of range.
func (e *Executor) RestoreShard(i int) error {
	if i < 0 || i >= len(e.shards) {
		return fmt.Errorf("htex: restore shard %d of %d", i, len(e.shards))
	}
	s := e.shards[i]
	// Hold e.mu across the whole respawn so a concurrent Shutdown either
	// observes and closes the new connection or makes this call fail fast —
	// never a fresh receive loop reading a connection nobody will close.
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed || !e.started {
		return errors.New("htex: restore on stopped executor")
	}
	if !s.down.Load() {
		return nil
	}
	c, err := e.openShard(s)
	if err != nil {
		return err
	}
	old := s.conn.Swap(c)
	// The death path closes only the broker; close the stale dealer too so
	// the old receive loop (which sees the swapped pointer) unblocks.
	_ = old.stream.dealer.Close()
	s.down.Store(false)
	e.wg.Add(1)
	go e.recvLoop(s, c)
	return nil
}

// retransmit repairs one shard's task stream after a NACK reset it: every
// task inflight on that shard goes again, on c, the connection whose stream
// was reset, even if a restore swaps the connection mid-repair. The client
// cannot know which tasks the lost frame carried, so the retransmission is a
// per-shard superset; tasks that were delivered run at most twice, and the
// registry completes each future exactly once whichever copy's result
// arrives first.
func (e *Executor) retransmit(s *shardLink, c *shardConn) {
	e.mu.Lock()
	msgs := make([]serialize.TaskMsg, 0, len(e.inflight))
	for _, it := range e.inflight {
		if it.shard != s.idx {
			continue
		}
		// Retain each snapshot entry under the lock: the framing below runs
		// unlocked, racing completions that drop the inflight reference, and
		// a recycled payload buffer must not reach the wire.
		it.msg.Payload().Retain()
		msgs = append(msgs, it.msg)
	}
	e.mu.Unlock()
	if len(msgs) == 0 {
		return
	}
	wires := make([]serialize.WireTask, 0, len(msgs))
	for i := range msgs {
		// Payloads were encoded at first submission; Wire() reuses them, so
		// a retransmission re-encodes nothing.
		if w, err := msgs[i].Wire(); err == nil {
			wires = append(wires, w)
		}
	}
	_ = c.stream.enc.EncodeTasks(wires, c.stream.ship)
	for i := range msgs {
		msgs[i].Payload().Release()
	}
}

// sendOrFail sends one submitted batch on shard s's current connection. A
// batch its endpoint refuses (mq fails a send only on a closed connection)
// fails task by task on s's account, so LostByShard counts it.
func (e *Executor) sendOrFail(s *shardLink, batch []serialize.WireTask) {
	c := s.conn.Load()
	if err := c.stream.enc.EncodeTasks(batch, c.stream.ship); err != nil {
		s.lost.Add(int64(len(batch)))
		for _, w := range batch {
			e.fail(w.ID, fmt.Errorf("htex: submit batch: %w", err))
		}
	}
}

// placeTask picks the shard for one task: rendezvous-hash tenant-affine
// placement, vetoing shards that are down or have no registered managers to
// drain them (those spill to the key's next-ranked shard — see taskShard).
func (e *Executor) placeTask(tenant string, id int64) int {
	if len(e.shards) == 1 {
		return 0 // before any hashing or manager count
	}
	return taskShard(len(e.shards), tenant, id, e.shardUp, func(si int) bool {
		return e.shards[si].broker().ManagerCount() > 0
	})
}

// shardUp is the liveness veto placement reads: shard si is not down.
func (e *Executor) shardUp(si int) bool { return !e.shards[si].down.Load() }

// dropInflightLocked removes id's inflight entry, releases its payload
// reference and returns its future for the caller to settle — nil when id is
// not (or no longer) registered. Called with e.mu held at every site that
// deletes from inflight, so the retain taken at registration is paired
// exactly once.
func (e *Executor) dropInflightLocked(id int64) *future.Future {
	it, ok := e.inflight[id]
	if !ok {
		return nil
	}
	delete(e.inflight, id)
	it.msg.Payload().Release()
	return it.fut
}

func (e *Executor) complete(r serialize.ResultMsg) {
	e.mu.Lock()
	fut := e.dropInflightLocked(r.ID)
	e.mu.Unlock()
	if fut == nil {
		return
	}
	e.outstanding.Add(-1)
	executor.Complete(fut, r)
}

func (e *Executor) fail(id int64, err error) {
	e.mu.Lock()
	fut := e.dropInflightLocked(id)
	e.mu.Unlock()
	if fut == nil {
		return
	}
	e.outstanding.Add(-1)
	_ = fut.SetError(err)
}

// Submit implements executor.Executor as a single-task batch: the
// registration/framing logic lives once in SubmitInto.
func (e *Executor) Submit(msg serialize.TaskMsg) *future.Future {
	return e.SubmitBatch([]serialize.TaskMsg{msg})[0]
}

// SubmitBatch implements executor.BatchSubmitter over SubmitInto: it makes
// the futures and takes, for each payload, the reference SubmitInto consumes.
func (e *Executor) SubmitBatch(msgs []serialize.TaskMsg) []*future.Future {
	futs := make([]*future.Future, len(msgs))
	for i, m := range msgs {
		futs[i] = future.NewForTask(m.ID)
		m.Payload().Retain()
	}
	e.SubmitInto(msgs, futs)
	return futs
}

// SubmitInto implements executor.IntoSubmitter: the whole batch is
// registered under one lock acquisition, then crosses the wire as one TASKB
// frame per owning shard, in submission order within each shard. One path
// serves every shard count: with one shard (the default) placement is a
// constant and the batch is one frame. From the interchange queues on, the
// existing manager-side batching (§4.3.1) takes over.
func (e *Executor) SubmitInto(msgs []serialize.TaskMsg, futs []*future.Future) {
	e.mu.Lock()
	if e.closed || !e.started {
		err := executor.ErrShutdown
		if !e.closed {
			err = errors.New("htex: Submit before Start")
		}
		e.mu.Unlock()
		for i := range futs {
			msgs[i].Payload().Release()
			_ = futs[i].SetError(err)
		}
		return
	}
	// Placement happens at registration so the inflight registry knows each
	// task's shard from the first instant — a shard death between this lock
	// and the send below must still fail exactly the right subset. placed[i]
	// is task i's shard, or ^shard when that shard is already down: such a
	// task is refused here, under the lock the death scan holds, since
	// registered it would have missed a scan that already ran, and a send to
	// the dead endpoint can succeed into a pipe nobody reads. A dispatch-lane
	// batch (at most 256 tasks) keeps the array on the stack.
	var buf [256]int16
	placed := buf[:]
	if len(msgs) > len(buf) {
		placed = make([]int16, len(msgs))
	}
	refused := 0
	// Two payload references per task: the inflight registry's own (the NACK
	// retransmission source, released when the entry leaves the map) and the
	// one handed over with the call, which pins the bytes across the framing
	// below — a Cancel racing this batch can drop the registry's before Wire()
	// runs, and the send leg must never frame a recycled buffer.
	for i, m := range msgs {
		shard := e.placeTask(m.Tenant, m.ID)
		if e.shards[shard].down.Load() {
			placed[i] = ^int16(shard)
			refused++
			continue
		}
		placed[i] = int16(shard)
		m.Payload().Retain()
		e.inflight[m.ID] = inflightTask{msg: m, fut: futs[i], shard: shard}
	}
	e.mu.Unlock()
	e.outstanding.Add(int64(len(msgs) - refused))

	// Frame one shard's partition at a time into the pooled wire scratch.
	// Tasks from the dispatch pipeline carry a payload whose bytes Wire()
	// wraps, building a value snapshot's on this first read, and cannot
	// fail; a direct submission without a payload encodes here, and an
	// unencodable argument fails only its own task — poison isolation comes
	// free, with no validation double-encode. A failed send fails only its
	// shard's partition: the other shards' tasks are already on their way.
	wp, _ := e.wires.Get().(*[]serialize.WireTask)
	if wp == nil {
		wp = new([]serialize.WireTask)
	}
	for si, s := range e.shards {
		wires := (*wp)[:0]
		for i, m := range msgs {
			switch placed[i] {
			case int16(si):
				// On the copy: a payload encoded here must not land in the
				// caller's slice, where the release below would take it for
				// one handed over.
				w, err := m.Wire()
				if err != nil {
					e.fail(m.ID, err)
					continue
				}
				wires = append(wires, w)
			case ^int16(si):
				s.lost.Add(1)
				_ = futs[i].SetError(&executor.LostError{TaskID: m.ID, Detail: "interchange shard lost", Manager: s.label})
			}
		}
		if len(wires) > 0 {
			e.sendOrFail(s, wires)
		}
		clear(wires) // the envelopes alias payload bytes released below
		*wp = wires[:0]
	}
	e.wires.Put(wp)
	for i := range msgs {
		msgs[i].Payload().Release()
	}
}

// Cancel implements executor.Canceler: the task's client-side future is
// settled with future.ErrCanceled and a CANCEL frame is sent to the shard
// holding the task so its interchange drops it from the queue (or forwards
// the drop to the manager holding it). Best effort past the client: a task
// already running on a worker is not preempted — its late result is simply
// ignored, since the inflight entry is gone.
func (e *Executor) Cancel(wireID int64) bool {
	e.mu.Lock()
	shard := e.inflight[wireID].shard
	fut := e.dropInflightLocked(wireID)
	e.mu.Unlock()
	if fut == nil {
		return false
	}
	e.outstanding.Add(-1)
	canceled := fut.Cancel()
	payload := serialize.EncodeIDs([]int64{wireID})
	if !e.shards[shard].down.Load() {
		_ = e.shards[shard].conn.Load().stream.send(mq.Message{tagCancel, payload})
	} else {
		// Dead owner: tell every live shard; the ones not holding the task
		// ignore the unknown id.
		for _, s := range e.shards {
			if !s.down.Load() {
				_ = s.conn.Load().stream.send(mq.Message{tagCancel, payload})
			}
		}
	}
	return canceled
}

// Outstanding implements executor.Executor.
func (e *Executor) Outstanding() int { return int(e.outstanding.Load()) }

// LostByShard reports how many attempts were failed on each shard's account
// (index = shard) — the system's own record of a shard death's blast radius.
// A death fails attempts three ways: the scan in shardDown fails everything
// inflight on the shard once the client notices the death, SubmitInto fails
// a task placed on a shard already marked down without sending it, and until
// the death is noticed the dead endpoint refuses the batches SubmitInto still
// sends it. Registration and the scan serialize on e.mu, so nothing escapes
// both. A batch refused while the scan runs is counted by both, so this is an
// upper bound, exact when no submission races the death.
func (e *Executor) LostByShard() []int {
	out := make([]int, len(e.shards))
	for i, s := range e.shards {
		out[i] = int(s.lost.Load())
	}
	return out
}

// InflightByShard reports how many submitted-but-unresolved tasks each shard
// currently owns (index = shard). A live gauge: tasks keep arriving while the
// dispatch pipeline routes a burst, so it says "this shard holds work now",
// never "this is all the work it will hold".
func (e *Executor) InflightByShard() []int {
	out := make([]int, len(e.shards))
	e.mu.Lock()
	for _, it := range e.inflight {
		if it.shard >= 0 && it.shard < len(out) {
			out[it.shard]++
		}
	}
	e.mu.Unlock()
	return out
}

// ConnectedWorkers implements executor.Scalable: managers × workers, summed
// over the live shards.
func (e *Executor) ConnectedWorkers() int {
	n := 0
	for _, s := range e.shards {
		if !s.down.Load() {
			n += s.broker().ManagerCount()
		}
	}
	return n * e.cfg.Manager.Workers
}

// HoldsDigest reports whether any live shard has a manager holding digest d
// (it returned a result for a task with those input bytes) — the
// executor-level locality probe internal/sched samples into Load.HasDigest.
// A holding whose manager has since died is forgotten with it; a wrong
// answer costs one cold placement, never correctness.
func (e *Executor) HoldsDigest(d string) bool {
	for _, s := range e.shards {
		if !s.down.Load() && s.broker().HasDigest(d) {
			return true
		}
	}
	return false
}

// ActiveBlocks implements executor.Scalable.
func (e *Executor) ActiveBlocks() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.blocks)
}

// ScaleOut implements executor.Scalable: one provider block per unit, with a
// manager started on every node of the block.
func (e *Executor) ScaleOut(n int) error {
	if e.cfg.Provider == nil {
		return errors.New("htex: no provider configured")
	}
	if n < 0 {
		return fmt.Errorf("htex: scale out by %d blocks", n)
	}
	for i := 0; i < n; i++ {
		blockID, err := e.cfg.Provider.SubmitBlock(e.managerPayload())
		if err != nil {
			return fmt.Errorf("htex: scale out: %w", err)
		}
		e.mu.Lock()
		e.blocks = append(e.blocks, blockID)
		e.mu.Unlock()
	}
	return nil
}

// shardForManager places one manager identity onto a live shard:
// rendezvous hash with a bounded load, so every shard keeps managers to drain
// the tasks hashed onto it even at small manager counts (see managerShard).
func (e *Executor) shardForManager(id string) *shardLink {
	e.mu.Lock()
	counts := make([]int, len(e.shards))
	for _, si := range e.mgrShard {
		if si >= 0 && si < len(counts) {
			counts[si]++
		}
	}
	e.mu.Unlock()
	return e.shards[managerShard(id, counts, e.shardUp)]
}

// managerPayload builds the per-node payload: start a manager connected to
// its rendezvous-hash shard; stopping it drains cleanly.
func (e *Executor) managerPayload() provider.Payload {
	if f := e.cfg.PayloadFactory; f != nil {
		return func(node provider.Node) (func(), error) {
			return f(e.shardForManager(node.BlockID).broker().Addr(), node)
		}
	}
	return func(node provider.Node) (func(), error) {
		id := fmt.Sprintf("mgr-%s-%d", node.BlockID, atomic.AddInt64(&e.mgrSeq, 1))
		s := e.shardForManager(id)
		mgr, err := StartManager(e.cfg.Transport, s.broker().Addr(), id, e.cfg.Registry, e.cfg.Manager)
		if err != nil {
			return nil, err
		}
		e.mu.Lock()
		e.blockMgrs[node.BlockID] = append(e.blockMgrs[node.BlockID], id)
		e.mgrShard[id] = s.idx
		e.mu.Unlock()
		return mgr.Drain, nil
	}
}

// idleBlocksFirst orders candidate blocks so that blocks whose managers have
// no in-flight tasks are released first, avoiding needless requeues of
// running work during scale-in. Manager identities are globally unique, so
// the per-shard outstanding maps merge without collision.
func (e *Executor) idleBlocksFirst(blocks []string) []string {
	busy := make(map[string]int)
	for _, s := range e.shards {
		if s.down.Load() {
			continue
		}
		for id, n := range s.broker().OutstandingByManager() {
			busy[id] = n
		}
	}
	var idle, active []string
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, b := range blocks {
		blockBusy := 0
		for _, mgr := range e.blockMgrs[b] {
			blockBusy += busy[mgr]
		}
		if blockBusy == 0 {
			idle = append(idle, b)
		} else {
			active = append(active, b)
		}
	}
	return append(idle, active...)
}

// ScaleIn implements executor.Scalable: cancel the most recent n blocks.
func (e *Executor) ScaleIn(n int) error {
	if e.cfg.Provider == nil {
		return errors.New("htex: no provider configured")
	}
	if n < 0 {
		return fmt.Errorf("htex: scale in by %d blocks", n)
	}
	e.mu.Lock()
	candidates := make([]string, len(e.blocks))
	copy(candidates, e.blocks)
	e.mu.Unlock()
	ordered := e.idleBlocksFirst(candidates)
	if n > len(ordered) {
		n = len(ordered)
	}
	victims := ordered[:n]
	e.mu.Lock()
	remaining := e.blocks[:0]
	for _, b := range e.blocks {
		keep := true
		for _, v := range victims {
			if b == v {
				keep = false
				break
			}
		}
		if keep {
			remaining = append(remaining, b)
		}
	}
	e.blocks = remaining
	for _, v := range victims {
		for _, mgr := range e.blockMgrs[v] {
			delete(e.mgrShard, mgr)
		}
		delete(e.blockMgrs, v)
	}
	e.mu.Unlock()
	var first error
	for _, id := range victims {
		if err := e.cfg.Provider.CancelBlock(id); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Command issues a synchronous command-channel request (§4.3.1). BLACKLIST
// routes to the one shard owning the named manager; every other command is a
// broadcast, with the reply parts concatenated in shard order (so a
// single-shard deployment answers exactly as the single broker did). A shard
// that fails or times out contributes nothing; the first such error is
// returned only when no shard answered at all.
func (e *Executor) Command(name, arg string, timeout time.Duration) ([]string, error) {
	e.cmdMu.Lock()
	defer e.cmdMu.Unlock()
	msg := mq.Message{tagCmd, []byte(name)}
	if arg != "" {
		msg = append(msg, []byte(arg))
	}
	targets := e.shards
	if name == "BLACKLIST" && arg != "" {
		e.mu.Lock()
		si, ok := e.mgrShard[arg]
		e.mu.Unlock()
		if ok {
			targets = e.shards[si : si+1]
		}
	}
	var out []string
	answered := false
	var firstErr error
	for _, s := range targets {
		if s.down.Load() {
			continue
		}
		if err := s.conn.Load().stream.send(msg); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("htex: command %s on %s: %w", name, s.label, err)
			}
			continue
		}
		rep, ok := s.awaitReply(name, timeout)
		if !ok {
			if firstErr == nil {
				firstErr = fmt.Errorf("htex: command %s timed out on %s", name, s.label)
			}
			continue
		}
		answered = true
		for _, p := range rep[2:] {
			out = append(out, string(p))
		}
	}
	if !answered {
		if firstErr != nil {
			return nil, firstErr
		}
		return nil, fmt.Errorf("htex: command %s: no live shards", name)
	}
	return out, nil
}

// awaitReply waits for the shard's reply to the command just sent. The reply
// buffer is input from the wire: a frame too short to name its command, or
// the late answer to an earlier command that timed out, is skipped rather
// than returned as this command's answer.
func (s *shardLink) awaitReply(name string, timeout time.Duration) (mq.Message, bool) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		select {
		case rep := <-s.cmdReplies:
			if len(rep) >= 2 && string(rep[1]) == name {
				return rep, true
			}
		case <-deadline.C:
			return nil, false
		}
	}
}

// Shutdown implements executor.Executor.
func (e *Executor) Shutdown() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	started := e.started
	blocks := e.blocks
	e.blocks = nil
	inflight := e.inflight
	e.inflight = make(map[int64]inflightTask)
	for _, it := range inflight {
		it.msg.Payload().Release()
	}
	e.mu.Unlock()

	if !started {
		return nil
	}
	for _, id := range blocks {
		if e.cfg.Provider != nil {
			_ = e.cfg.Provider.CancelBlock(id)
		}
	}
	for _, it := range inflight {
		_ = it.fut.SetError(executor.ErrShutdown)
	}
	var first error
	for _, s := range e.shards {
		c := s.conn.Load()
		if err := c.stream.dealer.Close(); err != nil && first == nil {
			first = err
		}
		if err := c.ix.Close(); err != nil && first == nil {
			first = err
		}
	}
	e.wg.Wait()
	return first
}
