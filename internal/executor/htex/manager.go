package htex

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/executor"
	"repro/internal/mq"
	"repro/internal/serialize"
	"repro/internal/simnet"
)

// resultFlush caps how many results one RESULTS frame carries. A batch is
// full at min(resultFlush, Workers+Prefetch) results and goes at once
// (resultLoop), so the cap binds only on managers with more than 16 slots.
const resultFlush = 16

// ManagerConfig tunes one pilot agent.
type ManagerConfig struct {
	// Workers is the number of worker goroutines (one per core in the
	// paper's deployments).
	Workers int
	// Prefetch is extra task slots advertised beyond Workers, letting the
	// manager buffer tasks and hide interchange round trips (§4.3.1:
	// "configurable batching and prefetching of tasks to minimize
	// communication overheads").
	Prefetch int
	// FlushInterval is the longest a result waits in a partial batch. A
	// batch that is full (see resultFlush) goes at once, so a saturated
	// manager never waits for this timer, and a one-slot manager (Workers
	// 1, Prefetch 0) sends every result as it completes.
	FlushInterval time.Duration
	// HeartbeatPeriod is how often the manager pings the interchange; if
	// the interchange stays silent for 5 periods the manager exits
	// ("managers, upon losing contact with the interchange, exit
	// immediately to avoid resource wastage").
	HeartbeatPeriod time.Duration
}

// Validate rejects impossible manager configurations (negative knobs). Zero
// values are fine — normalize fills them.
func (c ManagerConfig) Validate() error {
	if c.Workers < 0 {
		return fmt.Errorf("htex: manager Workers %d is negative", c.Workers)
	}
	if c.Prefetch < 0 {
		return fmt.Errorf("htex: manager Prefetch %d is negative", c.Prefetch)
	}
	if c.FlushInterval < 0 {
		return fmt.Errorf("htex: manager FlushInterval %v is negative", c.FlushInterval)
	}
	if c.HeartbeatPeriod < 0 {
		return fmt.Errorf("htex: manager HeartbeatPeriod %v is negative", c.HeartbeatPeriod)
	}
	return nil
}

func (c *ManagerConfig) normalize() {
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Prefetch < 0 {
		c.Prefetch = 0
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 5 * time.Millisecond
	}
	if c.HeartbeatPeriod <= 0 {
		c.HeartbeatPeriod = 200 * time.Millisecond
	}
}

// Manager is the per-node pilot agent: it registers capacity with the
// interchange, feeds a pool of worker slots, and streams result batches
// back. It is the only implementation of the manager side of the protocol;
// what a slot does with a task is the exec step it was constructed with
// (StartManager runs the kernel in-process, an EXEX pool hands the envelope
// to an MPI rank). Tasks arrive as wire envelopes whose argument payload —
// encoded once at submit time on the client — the manager never decodes.
type Manager struct {
	id  string
	cfg ManagerConfig
	// capacity is Workers+Prefetch, the most tasks this manager holds at
	// once: what REG advertises, the size of the task and result channels,
	// and (capped at resultFlush) the size of a full result batch.
	capacity int
	exec     func(slot int, w serialize.WireTask) (serialize.ResultMsg, error)
	// stream is the connection to the interchange: this manager's RESULTS
	// stream out, its TASKS stream in.
	stream peerStream

	tasks   chan heldTask
	results chan serialize.ResultMsg

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	mu       sync.Mutex
	lastSeen time.Time
	executed int64
	// canceled holds wire ids the interchange struck while they sat in this
	// manager's task buffer; workers drop them on dequeue instead of running
	// them. Entries are removed when encountered. An id canceled after its
	// task already ran leaves a stale entry — bounded by cancellations per
	// manager lifetime, and harmless because wire ids are never reused.
	canceled map[int64]struct{}
}

// StartManager connects a manager to the interchange at addr and begins
// executing tasks from reg on its own worker goroutines.
func StartManager(tr simnet.Transport, addr, id string, reg *serialize.Registry, cfg ManagerConfig) (*Manager, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.normalize() // the slot names below need the defaulted worker count
	workerIDs := make([]string, cfg.Workers)
	for i := range workerIDs {
		workerIDs[i] = fmt.Sprintf("%s/w%d", id, i)
	}
	return StartManagerExec(tr, addr, id, cfg, func(slot int, w serialize.WireTask) (serialize.ResultMsg, error) {
		// First and only decode of the argument payload, on the goroutine
		// that executes it — the decode is the worker's private deep copy,
		// so no further isolation copy is needed. The wire frame's bytes go
		// straight to the decoder (DecodeArgsBytes); no intermediate Payload
		// wrapper, no copy of the buffer, and the stack-built TaskMsg
		// carries only the decoded values into the kernel.
		args, kwargs, err := serialize.DecodeArgsBytes(w.P)
		if err != nil {
			return serialize.ResultMsg{ID: w.ID, WorkerID: workerIDs[slot],
				Err: fmt.Sprintf("decode task %d: %v", w.ID, err)}, nil
		}
		return executor.RunKernel(reg, serialize.TaskMsg{
			ID: w.ID, App: w.App, Priority: w.Priority,
			Tenant: w.Tenant, Weight: w.Weight,
			Args: args, Kwargs: kwargs,
		}, workerIDs[slot]), nil
	})
}

// StartManagerExec is StartManager with the execution step supplied by the
// caller: exec runs one task envelope on worker slot i (0 ≤ i < cfg.Workers,
// one call at a time per slot) and returns its result. An error from exec
// means the substrate behind the slots is gone — the manager stops without a
// BYE, so the interchange reports everything it held LOST. Everything else
// (registration, prefetch buffer, CANCEL, NACK resync, result batching,
// heartbeats, silence policing, acked drain, the PointMgrKill chaos point) is
// the same code whatever exec does.
func StartManagerExec(tr simnet.Transport, addr, id string, cfg ManagerConfig,
	exec func(slot int, w serialize.WireTask) (serialize.ResultMsg, error)) (*Manager, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.normalize()
	dealer, err := mq.DialDealer(tr, addr, id)
	if err != nil {
		return nil, fmt.Errorf("htex: manager %s: %w", id, err)
	}
	capacity := cfg.Workers + cfg.Prefetch
	m := &Manager{
		id:       id,
		cfg:      cfg,
		capacity: capacity,
		exec:     exec,
		stream:   newPeerStream(dealer, nil, "", tagResults, chaos.PointMgrResults, id),
		tasks:    make(chan heldTask, capacity),
		results:  make(chan serialize.ResultMsg, capacity),
		done:     make(chan struct{}),
		lastSeen: time.Now(),
		canceled: make(map[int64]struct{}),
	}
	if err := dealer.Send(mq.Message{tagReg, regPayload(capacity)}); err != nil {
		_ = dealer.Close()
		return nil, fmt.Errorf("htex: manager %s register: %w", id, err)
	}

	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker(i)
	}
	m.wg.Add(3)
	go m.recvLoop()
	go m.resultLoop()
	go m.heartbeatLoop()
	return m, nil
}

// Executed returns the number of tasks this manager has run.
func (m *Manager) Executed() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.executed
}

func (m *Manager) recvLoop() {
	defer m.wg.Done()
	var batch []serialize.WireTask // decode destination, reused frame to frame
	for {
		f, err := m.stream.dealer.RecvFrame()
		if err != nil {
			m.Stop() // interchange gone: exit immediately
			return
		}
		if !m.receive(f, &batch) {
			return
		}
		f.Release()
	}
}

// receive acts on one frame from the interchange; it reports false once the
// manager is stopping. A task's payload aliases its TASKS frame, so each task
// handed to a worker holds the frame until the worker is done with it.
func (m *Manager) receive(f *mq.Frame, batch *[]serialize.WireTask) bool {
	msg := f.Msg
	if len(msg) == 0 {
		return true
	}
	switch string(msg[0]) {
	case frameTasks:
		if len(msg) < 2 {
			return true
		}
		if err := m.stream.dec.DecodeFrame(msg[1], batch); err != nil {
			// The interchange resyncs this manager's encoder and requeues
			// what it was holding (codec.go). Without that, the lost
			// frame's tasks would sit in the broker's outstanding set
			// forever, leaking capacity.
			m.stream.nack(msg[1])
			return true
		}
		for _, t := range *batch {
			select {
			case m.tasks <- heldTask{t, f.Hold()}:
			case <-m.done:
				return false
			}
		}
		clear(*batch) // the workers own the tasks now; keep only the storage
	case frameHB:
		m.mu.Lock()
		m.lastSeen = time.Now()
		m.mu.Unlock()
	case frameCancel:
		if len(msg) < 2 {
			return true
		}
		ids, err := serialize.DecodeIDs(msg[1])
		if err != nil {
			return true
		}
		m.mu.Lock()
		for _, id := range ids {
			m.canceled[id] = struct{}{}
		}
		m.mu.Unlock()
	case frameNack:
		// The interchange cannot decode this manager's RESULTS stream.
		// It requeued our outstanding set when it sent the NACK, so the
		// lost frame's results re-execute elsewhere and the resync is
		// the whole repair (codec.go).
		if len(msg) >= 2 {
			m.stream.resync(msg[1])
		}
	}
	return true
}

// dropCanceled reports (and consumes) a pending cancellation for id.
func (m *Manager) dropCanceled(id int64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.canceled[id]; ok {
		delete(m.canceled, id)
		return true
	}
	return false
}

func (m *Manager) worker(slot int) {
	defer m.wg.Done()
	for {
		select {
		case <-m.done:
			return
		case h := <-m.tasks:
			w := h.WireTask
			// Chaos: abrupt manager death mid-batch — no BYE, no result. The
			// interchange's disconnect/heartbeat policing reports the held
			// tasks LOST, and the DFK retry path re-executes them (§3.7). The
			// detail carries the dequeued app name so poison-task scenarios
			// can Match a specific task killing every manager it lands on —
			// and is built only with an injector installed to read it.
			if chaos.Enabled() && chaos.Kill(chaos.PointMgrKill, m.id+" app="+w.App) {
				m.Stop()
				return
			}
			if m.dropCanceled(w.ID) {
				h.f.Release()
				continue // struck by the interchange; never starts
			}
			// exec is done with the envelope when it returns: the kernel ran
			// on a decoded copy, an MPI rank on a copy of its own.
			res, err := m.exec(slot, w)
			h.f.Release()
			if err != nil {
				m.Stop() // execution substrate gone: die without BYE
				return
			}
			m.mu.Lock()
			m.executed++
			m.mu.Unlock()
			select {
			case m.results <- res:
			case <-m.done:
				return
			}
		}
	}
}

// resultLoop aggregates results and sends them in batches (§4.3.1: "results
// are aggregated from workers and sent to the interchange in batches"). A
// batch ends when it is full, at min(resultFlush, capacity) results. The
// interchange frees a slot only when that slot's result reaches it, so a
// batch holding capacity results can grow no further and waiting longer buys
// nothing. A partial batch goes when FlushInterval fires; under load that is
// only the tail of a round whose size is not a multiple of the capacity.
func (m *Manager) resultLoop() {
	defer m.wg.Done()
	full := min(resultFlush, m.capacity)
	var batch []serialize.ResultMsg
	timer := time.NewTimer(m.cfg.FlushInterval)
	defer timer.Stop()
	flush := func() {
		if len(batch) == 0 {
			return
		}
		// A result whose value does not serialize travels as that task's
		// error result (serialize.EncodeResults), so the only error here is
		// the transport's, which the receive loop notices on its own.
		_ = m.stream.enc.EncodeResults(batch, m.stream.ship)
		// The encode above copied the batch into the encoder's frame buffer
		// synchronously, so the slice can be reused in place — cleared, so an
		// idle manager holds no result values.
		clear(batch)
		batch = batch[:0]
	}
	for {
		select {
		case <-m.done:
			flush()
			return
		case r := <-m.results:
			batch = append(batch, r)
			if len(batch) >= full {
				flush()
			}
		case <-timer.C:
			flush()
			timer.Reset(m.cfg.FlushInterval)
		}
	}
}

func (m *Manager) heartbeatLoop() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.cfg.HeartbeatPeriod)
	defer ticker.Stop()
	for {
		select {
		case <-m.done:
			return
		case <-ticker.C:
			if err := m.stream.send(mq.Message{tagHB}); err != nil {
				m.Stop()
				return
			}
			m.mu.Lock()
			silent := time.Since(m.lastSeen)
			m.mu.Unlock()
			if silent > 5*m.cfg.HeartbeatPeriod {
				m.Stop()
				return
			}
		}
	}
}

// Drain announces clean departure so in-flight tasks are requeued rather
// than reported lost, then stops. It waits (bounded) for the interchange to
// acknowledge by hanging up, so the BYE is processed before the connection
// drops — otherwise the disconnect would race the BYE and the interchange
// would report the tasks lost instead of requeueing them.
func (m *Manager) Drain() {
	if err := m.stream.send(mq.Message{tagBye}); err == nil {
		select {
		case <-m.done: // recvLoop saw the interchange hang up
		case <-time.After(2 * time.Second):
		}
	}
	m.Stop()
}

// Stop terminates the manager's goroutines and connection.
func (m *Manager) Stop() {
	m.closeOnce.Do(func() {
		close(m.done)
		_ = m.stream.dealer.Close()
	})
}

// Wait blocks until all manager goroutines exit, including a worker slot
// still inside its exec step.
func (m *Manager) Wait() { m.wg.Wait() }
