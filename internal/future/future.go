// Package future implements the single-update future abstraction that Parsl
// (HPDC'19, §3.1.2) uses as its only synchronization primitive.
//
// A Future is created pending and transitions exactly once to either a value
// or an error; further writes are rejected. A future keeps one registration
// list: every DoneHook (SetDoneHook) and callback (AddDoneCallback) on it fires
// exactly once, in the order it was registered, on the goroutine that
// completes the future (or immediately, on the caller's goroutine, if the
// future is already done). The DataFlowKernel encodes task-graph edges as
// these registrations — a waiting task's record is the DoneHook of each of its
// inputs — which is what makes dependency resolution event driven with O(n+e)
// cost.
//
// The struct is tuned for the million-task hot path: every task allocates
// one, and the submitter, the completing worker and the waiter all touch it,
// so on 64-bit it is 64 bytes — one size-64 object, one aligned cache line.
// Its mutex, its state word, the done channel, one value slot, one
// registration slot and the task id fill it. The done channel is allocated
// lazily (only futures somebody actually selects or blocks on pay for it). A
// failed future keeps its error in the value slot, which the state tells
// apart. The registration slot holds the first hook itself, so a task with one
// dependent never allocates for it; a second registration moves both into a
// list that is itself a DoneHook, with two inline slots. The DoneHook
// interface lets pipeline stages and task records embed their completion
// handling in a struct they already allocate instead of capturing a closure
// per task.
package future

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrAlreadySet is returned by SetResult/SetError when the future has already
// been completed. A future is a single-update variable.
var ErrAlreadySet = errors.New("future: result already set")

// ErrCanceled is the error stored in a future completed by Cancel.
var ErrCanceled = errors.New("future: canceled")

// State describes the lifecycle of a Future.
type State int32

const (
	// Pending means no result has been set.
	Pending State = iota
	// Resolved means a value was set.
	Resolved
	// Failed means an error was set.
	Failed
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Resolved:
		return "resolved"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("State(%d)", int32(s))
	}
}

// DoneHook is the allocation-free alternative to AddDoneCallback: a value
// that already exists (a dispatch-pipeline attempt record, an executor relay,
// a task record waiting on its inputs) implements FutureDone and registers
// itself with SetDoneHook, so completion notification costs no closure. Hooks
// and callbacks share one registration list and fire on the completing
// goroutine in the order they were registered, under the same must-not-block
// contract.
type DoneHook interface {
	FutureDone(*Future)
}

// callback is an AddDoneCallback function as a registration. A func value is
// one pointer, so storing it in a DoneHook allocates nothing.
type callback func(*Future)

// FutureDone implements DoneHook.
func (cb callback) FutureDone(f *Future) { cb(f) }

// hookList is a future's registration list once it holds two or more
// registrations: the future's one slot then holds the list. The first two
// live in the list's own inline array, so a second registration costs one
// object, and later ones grow the slice by doubling.
type hookList struct {
	hooks  []DoneHook
	inline [2]DoneHook
}

// FutureDone implements DoneHook: it fires the listed hooks once each, in
// registration order.
func (l *hookList) FutureDone(f *Future) {
	for _, h := range l.hooks {
		h.FutureDone(f)
	}
}

// closedChan is the shared pre-closed channel handed out by DoneChan on
// futures that completed before anyone asked for a channel.
var closedChan = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// Future is a single-assignment container for the eventual result of an
// asynchronous App invocation. The zero value is a pending future with
// TaskID 0; construct with New, NewForTask, Completed, or FromError when a
// task binding (or an immediate result) is needed.
type Future struct {
	mu sync.Mutex
	// state is written under mu but read lock-free (Done, State, Result,
	// Err, Value): the atomic store in complete is a release paired with the
	// acquire load, so an observer of a terminal state also observes value,
	// which never changes after it.
	state atomic.Int32
	// done is created lazily, by the first DoneChan caller (or blocking
	// waiter) that finds the future still pending. Futures consumed purely
	// through callbacks/hooks — the dispatch pipeline's common case — never
	// allocate it.
	done chan struct{}
	// value is the result of a Resolved future and the error of a Failed
	// one.
	value any
	// first is the registration list, hooks and callbacks alike: nil, the
	// one registration, or a *hookList holding two or more.
	first DoneHook

	// TaskID is the identifier of the task that will complete this future,
	// or a negative value when the future is not bound to a task (for
	// example, futures created by Completed).
	TaskID int64
}

// New returns a pending future not yet bound to a task.
func New() *Future {
	return &Future{TaskID: -1}
}

// NewForTask returns a pending future bound to the given task id.
func NewForTask(taskID int64) *Future {
	return &Future{TaskID: taskID}
}

// Completed returns a future already resolved with v.
func Completed(v any) *Future {
	f := New()
	// Cannot fail: the future is fresh.
	_ = f.SetResult(v)
	return f
}

// FromError returns a future already failed with err.
func FromError(err error) *Future {
	f := New()
	_ = f.SetError(err)
	return f
}

// SetResult completes the future with a value. It returns ErrAlreadySet if
// the future was previously completed.
func (f *Future) SetResult(v any) error {
	return f.complete(Resolved, v)
}

// SetError completes the future with an error. It returns ErrAlreadySet if
// the future was previously completed.
func (f *Future) SetError(err error) error {
	if err == nil {
		err = errors.New("future: SetError called with nil error")
	}
	return f.complete(Failed, err)
}

// Cancel completes a pending future with ErrCanceled. It reports whether the
// cancellation won the race (false if the future was already done).
func (f *Future) Cancel() bool {
	return f.complete(Failed, ErrCanceled) == nil
}

// complete settles the future in state s with v: a Resolved future's value
// or a Failed future's error.
func (f *Future) complete(s State, v any) error {
	f.mu.Lock()
	if State(f.state.Load()) != Pending {
		f.mu.Unlock()
		return ErrAlreadySet
	}
	f.value = v
	f.state.Store(int32(s)) // release: pairs with lock-free Done/State loads
	if f.done != nil {
		close(f.done)
	}
	first := f.first
	f.first = nil
	f.mu.Unlock()
	if first != nil {
		first.FutureDone(f)
	}
	return nil
}

// Done reports, without blocking (and without locking), whether the future
// has completed. This is the analogue of Parsl's future.done().
func (f *Future) Done() bool {
	return State(f.state.Load()) != Pending
}

// DoneChan returns a channel closed when the future completes, so futures can
// participate in select statements. The channel is created on first demand;
// an already-done future returns a shared pre-closed channel.
func (f *Future) DoneChan() <-chan struct{} {
	f.mu.Lock()
	if State(f.state.Load()) != Pending {
		f.mu.Unlock()
		return closedChan
	}
	if f.done == nil {
		f.done = make(chan struct{})
	}
	ch := f.done
	f.mu.Unlock()
	return ch
}

// State returns the current lifecycle state.
func (f *Future) State() State {
	return State(f.state.Load())
}

// Result blocks until the future completes and returns its value or error.
// This is the analogue of Parsl's future.result().
func (f *Future) Result() (any, error) {
	s := State(f.state.Load())
	if s == Pending {
		<-f.DoneChan()
		s = State(f.state.Load())
	}
	// A settled future never changes, and the acquire load of its state
	// ordered value: read it without the mutex.
	if s == Failed {
		return nil, f.value.(error)
	}
	return f.value, nil
}

// ResultCtx is Result with context cancellation. If ctx expires first, the
// future is left untouched and the context error is returned.
func (f *Future) ResultCtx(ctx context.Context) (any, error) {
	select {
	case <-f.DoneChan():
		return f.Result()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// ResultTimeout is Result bounded by a timeout.
func (f *Future) ResultTimeout(d time.Duration) (any, error) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return f.ResultCtx(ctx)
}

// Err returns the future's error without blocking. It returns nil when the
// future is pending or resolved. Like Result it reads a settled future
// without the mutex.
func (f *Future) Err() error {
	if State(f.state.Load()) != Failed {
		return nil
	}
	return f.value.(error)
}

// Value returns the future's value without blocking (nil while pending or
// failed).
func (f *Future) Value() any {
	if State(f.state.Load()) != Resolved {
		return nil
	}
	return f.value
}

// AddDoneCallback registers cb to run when the future completes. If the
// future is already done, cb runs synchronously before AddDoneCallback
// returns. Callbacks must not block: the DataFlowKernel relies on them for
// edge triggering and a blocking callback stalls the completing goroutine.
func (f *Future) AddDoneCallback(cb func(*Future)) {
	f.SetDoneHook(callback(cb))
}

// SetDoneHook adds h to the future's registration list: on completion h fires
// once, after every hook and callback registered before it and before every
// one registered after. A hook registered twice fires twice. If the future is
// already done, h fires synchronously before SetDoneHook returns. Same
// must-not-block contract as callbacks.
func (f *Future) SetDoneHook(h DoneHook) {
	f.mu.Lock()
	if State(f.state.Load()) == Pending {
		switch l, ok := f.first.(*hookList); {
		case ok:
			l.hooks = append(l.hooks, h)
		case f.first == nil:
			f.first = h
		default:
			l = &hookList{}
			l.inline = [2]DoneHook{f.first, h}
			l.hooks = l.inline[:]
			f.first = l
		}
		f.mu.Unlock()
		return
	}
	f.mu.Unlock()
	h.FutureDone(f)
}

// String implements fmt.Stringer for debugging and monitoring output.
func (f *Future) String() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch State(f.state.Load()) {
	case Pending:
		return fmt.Sprintf("Future{task=%d pending}", f.TaskID)
	case Resolved:
		return fmt.Sprintf("Future{task=%d resolved %v}", f.TaskID, f.value)
	default:
		return fmt.Sprintf("Future{task=%d failed %v}", f.TaskID, f.value)
	}
}
