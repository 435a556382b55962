// Package threadpool implements the in-process executor corresponding to
// Python's ThreadPoolExecutor, which Parsl wraps for single-node use and
// which serves as the latency floor in Fig. 3: no network hop, just a queue
// and worker goroutines. Isolation still holds: each worker runs its task on
// a fresh copy of the arguments, taken from the task's payload: one slice
// copy when the payload holds the values (serialize.SnapshotArgs), whatever
// else the DFK runs beside this pool, and otherwise one decode of its bytes,
// encoded first for a direct submission that carries none.
package threadpool

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/executor"
	"repro/internal/future"
	"repro/internal/serialize"
)

// Executor is a fixed-size pool of worker goroutines.
type Executor struct {
	label   string
	workers int
	reg     *serialize.Registry

	queue       chan item
	outstanding atomic.Int64
	wg          sync.WaitGroup

	// pending indexes queued-but-not-started futures by wire id for Cancel.
	// Guarded by its own mutex: workers must be able to delete entries while
	// SubmitInto holds mu across a blocking send into a full queue.
	pendMu  sync.Mutex
	pending map[int64]*future.Future

	mu      sync.Mutex
	started bool
	closed  bool
}

type item struct {
	msg serialize.TaskMsg
	fut *future.Future
}

// New creates a thread-pool executor with the given worker count (minimum 1)
// executing apps from reg, with the default input-queue depth of 4096.
func New(label string, workers int, reg *serialize.Registry) *Executor {
	return NewWithDepth(label, workers, 4096, reg)
}

// NewWithDepth creates a thread-pool executor with an explicit input-queue
// depth (minimum 1). The depth is the executor's backpressure knob: a full
// queue blocks submission, backing work up into the DFK's per-executor
// lane, where tenant-fair (and priority) ordering applies. A deep queue
// maximizes burst absorption; a shallow one (a small multiple of workers)
// keeps queueing decisions upstream where fairness holds, at no throughput
// cost as long as depth covers the submit round trip.
func NewWithDepth(label string, workers, depth int, reg *serialize.Registry) *Executor {
	if workers < 1 {
		workers = 1
	}
	if depth < 1 {
		depth = 1
	}
	return &Executor{
		label:   label,
		workers: workers,
		reg:     reg,
		queue:   make(chan item, depth),
		pending: make(map[int64]*future.Future),
	}
}

// Label implements executor.Executor.
func (e *Executor) Label() string { return e.label }

// Start implements executor.Executor.
func (e *Executor) Start() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.started {
		return nil
	}
	e.started = true
	for i := 0; i < e.workers; i++ {
		e.wg.Add(1)
		go e.worker(fmt.Sprintf("%s/thread-%d", e.label, i))
	}
	return nil
}

func (e *Executor) worker(id string) {
	defer e.wg.Done()
	for it := range e.queue {
		// Claim the task. Presence in the pending index is the claim token:
		// exactly one of worker and Cancel removes the entry, so a task is
		// either run (worker won) or dropped before starting (Cancel won) —
		// never both, even when Cancel settles the future after this check.
		e.pendMu.Lock()
		_, unclaimed := e.pending[it.msg.ID]
		delete(e.pending, it.msg.ID)
		e.pendMu.Unlock()
		if !unclaimed {
			// Claimed by Cancel, which also adjusted the outstanding count; the
			// dead item and its payload reference just fall out of the queue.
			it.msg.Payload().Release()
			continue
		}
		// Deep-copy arguments so an impure app cannot mutate caller state:
		// the same isolation the serialization boundary gives remote
		// executors (§3.2), read the way htex's Wire reads them. A payload
		// that holds the values (a snapshot, bytes built or not) copies them
		// into one new slice, an encoded payload decodes its cached bytes
		// once, and a direct submission without one encodes here first; an
		// unencodable argument fails only its own task.
		p, err := it.msg.ArgsPayload()
		if err == nil {
			it.msg.Args, it.msg.Kwargs, err = p.DecodeArgs()
			p.Release() // last read of the bytes: the submission's reference ends here
		}
		var res serialize.ResultMsg
		if err != nil {
			res = serialize.ResultMsg{ID: it.msg.ID, WorkerID: id, Err: err.Error()}
		} else {
			res = executor.RunKernel(e.reg, it.msg, id)
		}
		e.outstanding.Add(-1)
		executor.Complete(it.fut, res)
	}
}

// Submit implements executor.Executor as a single-task batch, so the
// state-check/enqueue logic lives in exactly one place.
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

// SubmitInto implements executor.IntoSubmitter: one state check and one
// outstanding-counter bump for the whole batch, then a straight enqueue —
// the in-process analogue of HTEX's manager-side task batching. The sends
// stay under the mutex so a concurrent Shutdown cannot close the queue
// mid-batch (workers never take it, so a full queue still drains). Each
// payload reference rides its queue item to the worker that decodes or drops it.
func (e *Executor) SubmitInto(msgs []serialize.TaskMsg, futs []*future.Future) {
	e.mu.Lock()
	if e.closed || !e.started {
		err := executor.ErrShutdown
		if !e.closed {
			err = fmt.Errorf("threadpool %s: Submit before Start", e.label)
		}
		e.mu.Unlock()
		for i := range futs {
			msgs[i].Payload().Release()
			_ = futs[i].SetError(err)
		}
		return
	}
	e.outstanding.Add(int64(len(msgs)))
	e.pendMu.Lock()
	for i, m := range msgs {
		e.pending[m.ID] = futs[i]
	}
	e.pendMu.Unlock()
	for i, m := range msgs {
		e.queue <- item{msg: m, fut: futs[i]}
	}
	e.mu.Unlock()
}

// Cancel implements executor.Canceler: a task still waiting in the input
// queue has its future settled with future.ErrCanceled (unless its owner got
// there first) and is dropped by the worker that eventually dequeues it.
// Tasks already started, done or unknown are unaffected and report false.
// Removing the pending entry under the lock is the claim; the future is
// settled outside it so its callbacks cannot deadlock against SubmitInto.
func (e *Executor) Cancel(wireID int64) bool {
	e.pendMu.Lock()
	fut, ok := e.pending[wireID]
	if ok {
		delete(e.pending, wireID)
	}
	e.pendMu.Unlock()
	if !ok {
		return false
	}
	// The claim succeeded, so no worker will run or complete this task:
	// settle its future and drop it from the load signal immediately —
	// schedulers must not see canceled backlog as outstanding work until a
	// worker happens to reach the dead queue item.
	e.outstanding.Add(-1)
	return fut.Cancel()
}

// Outstanding implements executor.Executor.
func (e *Executor) Outstanding() int { return int(e.outstanding.Load()) }

// Workers returns the pool size.
func (e *Executor) Workers() int { return e.workers }

// Shutdown implements executor.Executor: it drains queued tasks and stops.
func (e *Executor) Shutdown() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	started := e.started
	e.mu.Unlock()
	close(e.queue)
	if started {
		e.wg.Wait()
	}
	return nil
}
