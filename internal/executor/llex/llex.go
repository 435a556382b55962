// Package llex implements Parsl's Low Latency Executor (§4.3.3). LLEX
// minimizes task round-trip time by sacrificing everything else: the
// interchange is a stateless relay that neither tracks tasks nor detects
// worker loss, workers connect directly to the interchange (one fewer
// message hop each way than HTEX), there is no elasticity (LLEX assumes a
// fixed set of resources), and reliability comes from client-side timed
// retries and optional replication.
package llex

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/executor"
	"repro/internal/future"
	"repro/internal/mq"
	"repro/internal/serialize"
	"repro/internal/simnet"
)

const (
	frameTask   = "TASK"
	frameResult = "RESULT"
	// workerPrefix distinguishes worker peers from the client peer in the
	// relay's identity space.
	workerPrefix = "llw-"
	clientID     = "llex-client"
)

// The tags as the byte slices mq takes: converting the constant at each send
// would allocate it each time.
var (
	tagTask   = []byte(frameTask)
	tagResult = []byte(frameResult)
)

// Relay is the stateless LLEX interchange: it routes TASK frames to workers
// round-robin and RESULT frames back to the client, holding no task state —
// "the routing logic is completely stateless and opaque to the interchange".
// A delivery is released once it is sent on, or dropped; a task backlogged
// until a worker connects keeps its frame until then.
type Relay struct {
	router *mq.Router

	mu      sync.Mutex
	workers []string
	next    int
	client  string
	backlog []*mq.Frame // tasks arriving before any worker connects

	done chan struct{}
	wg   sync.WaitGroup
}

// StartRelay launches a relay at addr.
func StartRelay(tr simnet.Transport, addr string) (*Relay, error) {
	r, err := mq.NewRouter(tr, addr)
	if err != nil {
		return nil, fmt.Errorf("llex: relay: %w", err)
	}
	rl := &Relay{router: r, done: make(chan struct{})}
	rl.wg.Add(1)
	go rl.loop()
	return rl, nil
}

// Addr returns the relay's bound address.
func (rl *Relay) Addr() string { return rl.router.Addr() }

func (rl *Relay) loop() {
	defer rl.wg.Done()
	for {
		select {
		case <-rl.done:
			return
		case ev := <-rl.router.Events():
			if !strings.HasPrefix(ev.ID, workerPrefix) {
				continue
			}
			if !ev.Joined {
				rl.dropWorker(ev.ID)
				continue
			}
			rl.mu.Lock()
			rl.workers = append(rl.workers, ev.ID)
			backlog := rl.backlog
			rl.backlog = nil
			rl.mu.Unlock()
			for _, f := range backlog {
				rl.forward(f)
			}
		case del, ok := <-rl.router.Incoming():
			if !ok {
				return
			}
			if len(del.Msg) == 0 {
				del.Frame.Release()
				continue
			}
			switch string(del.Msg[0]) {
			case frameTask:
				rl.mu.Lock()
				rl.client = del.From
				rl.mu.Unlock()
				rl.forward(del.Frame) // releases the frame once sent, or backlogs it
				continue
			case frameResult:
				rl.mu.Lock()
				client := rl.client
				rl.mu.Unlock()
				if client != "" {
					_ = rl.router.SendTo(client, del.Msg)
				}
			}
			del.Frame.Release()
		}
	}
}

// forward sends a task to the next worker round-robin; with no workers it is
// buffered (a pragmatic deviation from pure statelessness that avoids
// dropping tasks during startup; the paper's LLEX assumes workers pre-exist).
// A worker whose send fails is dropped here: its leave event is read by the
// goroutine that is running this loop, so waiting for it would spin. The
// frame is released once sent, or once the relay is closing.
func (rl *Relay) forward(f *mq.Frame) {
	for {
		rl.mu.Lock()
		if len(rl.workers) == 0 {
			rl.backlog = append(rl.backlog, f)
			rl.mu.Unlock()
			return
		}
		w := rl.workers[rl.next%len(rl.workers)]
		rl.next++
		rl.mu.Unlock()
		err := rl.router.SendTo(w, f.Msg)
		if err == nil || errors.Is(err, mq.ErrClosed) {
			f.Release() // delivered, or the relay is closing and nothing can be
			return
		}
		rl.dropWorker(w)
	}
}

// dropWorker forgets a departed worker; a worker already forgotten is a no-op.
func (rl *Relay) dropWorker(id string) {
	rl.mu.Lock()
	defer rl.mu.Unlock()
	for i, w := range rl.workers {
		if w == id {
			rl.workers = append(rl.workers[:i], rl.workers[i+1:]...)
			return
		}
	}
}

// Close stops the relay.
func (rl *Relay) Close() error {
	select {
	case <-rl.done:
		return nil
	default:
	}
	close(rl.done)
	err := rl.router.Close()
	rl.wg.Wait()
	return err
}

// Worker is a single-threaded LLEX worker connected directly to the relay.
// Single-threaded because LLEX targets sub-millisecond tasks where context
// switching would add jitter.
type Worker struct {
	id     string
	dealer *mq.Dealer
	reg    *serialize.Registry
	done   chan struct{}
	once   sync.Once
	wg     sync.WaitGroup
}

// StartWorker connects a worker to the relay at addr.
func StartWorker(tr simnet.Transport, addr, id string, reg *serialize.Registry) (*Worker, error) {
	if !strings.HasPrefix(id, workerPrefix) {
		id = workerPrefix + id
	}
	d, err := mq.DialDealer(tr, addr, id)
	if err != nil {
		return nil, fmt.Errorf("llex: worker %s: %w", id, err)
	}
	w := &Worker{id: id, dealer: d, reg: reg, done: make(chan struct{})}
	w.wg.Add(1)
	go w.loop()
	return w, nil
}

func (w *Worker) loop() {
	defer w.wg.Done()
	for {
		f, err := w.dealer.RecvFrame()
		if err != nil {
			return
		}
		if msg := f.Msg; len(msg) >= 2 && string(msg[0]) == frameTask {
			// The task's attached payload aliases the frame, so the frame
			// is released once the kernel has run.
			if task, err := serialize.DecodeTask(msg[1]); err == nil {
				res := executor.RunKernel(w.reg, task, w.id)
				_ = w.dealer.Send(mq.Message{tagResult, serialize.EncodeResult(res)})
			}
		}
		f.Release()
	}
}

// Stop disconnects the worker.
func (w *Worker) Stop() {
	w.once.Do(func() { close(w.done); _ = w.dealer.Close() })
	w.wg.Wait()
}

// Config assembles an LLEX deployment.
type Config struct {
	Label     string
	Transport simnet.Transport
	Registry  *serialize.Registry
	// Workers is the fixed worker pool size started by the executor.
	Workers int
	// RetryInterval is the client-side timed-retry period for lost tasks;
	// zero disables retransmission.
	RetryInterval time.Duration
	// MaxRetries bounds retransmissions per task (default 3).
	MaxRetries int
}

// Executor is the LLEX client.
type Executor struct {
	cfg   Config
	relay *Relay

	dealer *mq.Dealer

	mu      sync.Mutex
	pending map[int64]*pendingTask
	workers []*Worker
	started bool
	closed  bool

	outstanding atomic.Int64
	wg          sync.WaitGroup
}

type pendingTask struct {
	fut     *future.Future
	payload []byte
	tries   int
	timer   *time.Timer
}

// New creates an LLEX executor.
func New(cfg Config) *Executor {
	if cfg.Label == "" {
		cfg.Label = "llex"
	}
	if cfg.Transport == nil {
		cfg.Transport = simnet.NewNetwork(0)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 3
	}
	return &Executor{cfg: cfg, pending: make(map[int64]*pendingTask)}
}

// Label implements executor.Executor.
func (e *Executor) Label() string { return e.cfg.Label }

// Start implements executor.Executor.
func (e *Executor) Start() error {
	e.mu.Lock()
	if e.started {
		e.mu.Unlock()
		return nil
	}
	e.started = true
	e.mu.Unlock()

	relay, err := StartRelay(e.cfg.Transport, ":0") // the transports' auto-assign form
	if err != nil {
		return err
	}
	e.relay = relay

	dealer, err := mq.DialDealer(e.cfg.Transport, relay.Addr(), clientID)
	if err != nil {
		_ = relay.Close()
		return fmt.Errorf("llex: client dial: %w", err)
	}
	e.dealer = dealer
	e.wg.Add(1)
	go e.recvLoop()

	for i := 0; i < e.cfg.Workers; i++ {
		w, err := StartWorker(e.cfg.Transport, relay.Addr(), fmt.Sprintf("llw-%d", i), e.cfg.Registry)
		if err != nil {
			return err
		}
		e.mu.Lock()
		e.workers = append(e.workers, w)
		e.mu.Unlock()
	}
	return nil
}

func (e *Executor) recvLoop() {
	defer e.wg.Done()
	for {
		f, err := e.dealer.RecvFrame()
		if err != nil {
			return
		}
		// The result is decoded into copies, so the frame goes back at once.
		msg := f.Msg
		if len(msg) < 2 || string(msg[0]) != frameResult {
			f.Release()
			continue
		}
		res, err := serialize.DecodeResult(msg[1])
		f.Release()
		if err != nil {
			continue
		}
		e.mu.Lock()
		pt, ok := e.pending[res.ID]
		delete(e.pending, res.ID)
		var timer *time.Timer
		if ok {
			timer = pt.timer
		}
		e.mu.Unlock()
		if !ok {
			continue // duplicate result from a retransmitted task
		}
		if timer != nil {
			timer.Stop()
		}
		e.outstanding.Add(-1)
		executor.Complete(pt.fut, res)
	}
}

// Submit implements executor.Executor: one hop to the relay, one to the
// worker, and the mirror on the way back.
//
// LLEX deliberately does not implement executor.BatchSubmitter: batching
// adds queueing delay, and this executor exists to minimize per-task
// latency (§4.3.3). The DFK's dispatch lanes degrade to per-task Submit
// calls for it.
func (e *Executor) Submit(msg serialize.TaskMsg) *future.Future {
	fut := future.NewForTask(msg.ID)
	// Standalone frames on purpose: the stateless relay fans a single
	// client's frames out across workers round-robin, so no worker could
	// follow a numbered client stream — every frame must decode on its
	// own. The encode still reuses the submit-time argument
	// payload when the dispatch pipeline attached one, and the encoded
	// bytes are retained for retransmission, so retries cost no re-encode
	// either.
	payload, err := serialize.EncodeTask(msg)
	if err != nil {
		_ = fut.SetError(err)
		return fut
	}
	// The closed check and the registration share one critical section, so
	// a task is either refused here or in the pending map Shutdown fails.
	pt := &pendingTask{fut: fut, payload: payload}
	e.mu.Lock()
	if e.closed || !e.started {
		closed := e.closed
		e.mu.Unlock()
		if closed {
			_ = fut.SetError(executor.ErrShutdown)
		} else {
			_ = fut.SetError(errors.New("llex: Submit before Start"))
		}
		return fut
	}
	e.pending[msg.ID] = pt
	e.outstanding.Add(1)
	e.mu.Unlock()

	if err := e.dealer.Send(mq.Message{tagTask, payload}); err != nil {
		e.abandon(msg.ID, fmt.Errorf("llex: submit: %w", err))
		return fut
	}
	if e.cfg.RetryInterval > 0 {
		e.armRetry(msg.ID, pt)
	}
	return fut
}

// armRetry schedules the timed retransmission that substitutes for fault
// detection ("reliable execution can be guaranteed with minimal cost, even
// on unreliable nodes, by timed-retries and replication"). pt.timer is
// only touched under e.mu: the rearm in the timer callback races with the
// completion path otherwise.
func (e *Executor) armRetry(id int64, pt *pendingTask) {
	timer := time.AfterFunc(e.cfg.RetryInterval, func() {
		e.mu.Lock()
		cur, ok := e.pending[id]
		if !ok || cur != pt || e.closed {
			e.mu.Unlock()
			return
		}
		pt.tries++
		tries := pt.tries
		e.mu.Unlock()
		if tries > e.cfg.MaxRetries {
			e.abandon(id, &executor.LostError{TaskID: id, Detail: fmt.Sprintf("no result after %d retransmits", e.cfg.MaxRetries)})
			return
		}
		_ = e.dealer.Send(mq.Message{tagTask, pt.payload})
		e.armRetry(id, pt)
	})
	e.mu.Lock()
	if cur, ok := e.pending[id]; ok && cur == pt {
		pt.timer = timer
	} else {
		timer.Stop() // completed while we were arming
	}
	e.mu.Unlock()
}

func (e *Executor) abandon(id int64, err error) {
	e.mu.Lock()
	pt, ok := e.pending[id]
	delete(e.pending, id)
	var timer *time.Timer
	if ok {
		timer = pt.timer
	}
	e.mu.Unlock()
	if !ok {
		return
	}
	if timer != nil {
		timer.Stop()
	}
	e.outstanding.Add(-1)
	_ = pt.fut.SetError(err)
}

// Outstanding implements executor.Executor.
func (e *Executor) Outstanding() int { return int(e.outstanding.Load()) }

// Shutdown implements executor.Executor.
func (e *Executor) Shutdown() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	started := e.started
	workers := e.workers
	e.workers = nil
	pending := e.pending
	e.pending = make(map[int64]*pendingTask)
	e.mu.Unlock()

	if !started {
		return nil
	}
	for _, pt := range pending {
		if pt.timer != nil {
			pt.timer.Stop()
		}
		_ = pt.fut.SetError(executor.ErrShutdown)
	}
	e.outstanding.Add(-int64(len(pending)))
	var first error
	if e.dealer != nil {
		if err := e.dealer.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, w := range workers {
		w.Stop()
	}
	if e.relay != nil {
		if err := e.relay.Close(); err != nil && first == nil {
			first = err
		}
	}
	e.wg.Wait()
	return first
}
