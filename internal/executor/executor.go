// Package executor defines Parsl's modular executor interface (§4.3) and the
// shared execution kernel. Executors move tasks to resources, run them, and
// complete the future the DataFlowKernel is holding. Concrete executors live
// in subpackages: threadpool (in-process), htex (high throughput), exex
// (extreme scale over MPI), and llex (low latency).
package executor

import (
	"errors"
	"fmt"
	"runtime/debug"

	"repro/internal/chaos"
	"repro/internal/future"
	"repro/internal/serialize"
)

// Executor runs tasks on some set of resources. It extends the spirit of
// concurrent.futures.Executor the way Parsl does: submission returns a
// future, plus lifecycle and introspection hooks the DFK and the elasticity
// strategy need.
type Executor interface {
	// Label is the config-assigned name used for executor selection hints.
	Label() string
	// Start brings the executor up. It must be called before Submit.
	Start() error
	// Submit schedules a task; the returned future completes with the
	// task's result or error.
	Submit(msg serialize.TaskMsg) *future.Future
	// Outstanding reports tasks submitted but not yet completed, the
	// workload-pressure signal used by scaling strategies (§3.6).
	Outstanding() int
	// Shutdown stops the executor and releases its resources.
	Shutdown() error
}

// Scalable is implemented by executors that support block-based elasticity.
type Scalable interface {
	Executor
	// ScaleOut requests n more blocks.
	ScaleOut(n int) error
	// ScaleIn releases n blocks.
	ScaleIn(n int) error
	// ActiveBlocks reports provisioned blocks.
	ActiveBlocks() int
	// ConnectedWorkers reports currently registered workers.
	ConnectedWorkers() int
}

// BatchSubmitter is implemented by executors that can accept a batch of
// ready tasks in one call, amortizing per-submit locking and wire framing.
// The DFK's dispatch pipeline groups ready tasks by target executor and
// prefers IntoSubmitter, then this interface, degrading to one Submit call
// per task for executors that implement neither.
type BatchSubmitter interface {
	// SubmitBatch schedules every task in msgs and returns their futures in
	// matching order. Submission failures are reported through the affected
	// future, never by shortening the slice.
	SubmitBatch(msgs []serialize.TaskMsg) []*future.Future
}

// IntoSubmitter is implemented by executors that settle futures the caller
// owns instead of returning their own — "complete the future the DFK is
// holding" taken literally, with no executor-side future and no hop copying
// one future into another. The DFK adapts executors without it through a relay.
type IntoSubmitter interface {
	// SubmitInto schedules msgs[i] and settles futs[i] wherever Submit would
	// settle the future it returns (result, ErrShutdown, "Submit before
	// Start", Cancel). futs[i] arrives pending and stays the caller's: it may
	// settle it first (timeout, cancellation), and the executor's later write
	// is refused and ignored. Neither slice is retained after the call. Once
	// the executor has settled futs[i] it never reads or writes it again, so
	// the caller may reuse a future it saw settled by the executor; one the
	// caller settled first may still receive the executor's refused write.
	//
	// Payload ownership moves with the call: a msgs[i] carrying an encode-once
	// payload arrives with one reference that is now the executor's, released
	// once it has read the bytes (decoded or framed them, or refused or dropped
	// the task) — not when the future settles, so a ghost (a task whose caller
	// gave up on it) still reads valid bytes. An executor keeping the payload
	// longer (a retransmit registry) retains its own.
	SubmitInto(msgs []serialize.TaskMsg, futs []*future.Future)
}

// Canceler is implemented by executors that can drop submitted work that
// has not started running. Cancel names the task by its wire id and reports
// whether the cancellation settled the task's future: false when the task is
// unknown or already completed — and, for a future handed over through
// SubmitInto, when its owner settled it first. The work is dropped all the
// same, and the DFK, which always settles an attempt before cancelling it,
// ignores the bool. Cancellation is a queue operation, not a kill: work
// already running is never preempted, and how much the bool promises depends
// on the executor's distance. The in-process threadpool claims the task
// atomically, so true means the work will never start; distributed executors
// (htex) settle the client-side handle and forward a best-effort drop — true
// there means the result will be discarded, while a task already executing
// remotely still runs to completion. Callers with non-idempotent work must
// not treat true as proof that no side effects occurred.
type Canceler interface {
	Cancel(wireID int64) bool
}

// ErrShutdown is returned by Submit after Shutdown.
var ErrShutdown = errors.New("executor: shut down")

// RemoteError is an app or infrastructure failure reported by a worker. The
// DFK unwraps it when deciding whether to retry.
type RemoteError struct {
	TaskID int64
	Msg    string
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("task %d failed remotely: %s", e.TaskID, e.Msg)
}

// LostError indicates the infrastructure (manager, worker pool) executing
// the task was lost — distinct from the app itself failing, and always
// retriable (§4.3.1: "an exception is sent to the executor so that DFK can
// make appropriate decisions").
type LostError struct {
	TaskID int64
	Detail string
	// Manager identifies the lost manager when known ("" otherwise); the
	// health plane's poison-task quarantine counts distinct managers a task's
	// attempts have killed.
	Manager string
}

// Error implements error.
func (e *LostError) Error() string {
	if e.Manager != "" {
		return fmt.Sprintf("task %d lost: %s (manager %s)", e.TaskID, e.Detail, e.Manager)
	}
	return fmt.Sprintf("task %d lost: %s", e.TaskID, e.Detail)
}

// RunKernel is the common execution kernel every executor shares (§4.3):
// resolve the app in the registry, execute it against its (already
// deserialized) arguments inside a panic sandbox, and package the outcome.
func RunKernel(reg *serialize.Registry, msg serialize.TaskMsg, workerID string) (res serialize.ResultMsg) {
	res = serialize.ResultMsg{ID: msg.ID, WorkerID: workerID}
	entry, ok := reg.Lookup(msg.App)
	if !ok {
		res.Err = fmt.Sprintf("app %q not registered on worker %s", msg.App, workerID)
		return res
	}
	defer func() {
		if r := recover(); r != nil {
			res.Value = nil
			res.Err = fmt.Sprintf("panic in app %q: %v\n%s", msg.App, r, debug.Stack())
		}
	}()
	// Execution fault point, inside the recover sandbox: an injected panic
	// takes exactly the path a panicking app body would, an injected stall
	// models a slow task on this worker, and an injected failure (plain or
	// class-typed) becomes the task's reported error. No-op unless chaos is
	// armed.
	if err := chaos.Exec(chaos.PointExecRun, workerID); err != nil {
		res.Err = err.Error()
		return res
	}
	v, err := entry.Fn(msg.Args, msg.Kwargs)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.Value = v
	return res
}

// Complete applies a ResultMsg to a future using the error conventions above.
func Complete(fut *future.Future, res serialize.ResultMsg) {
	if res.Err != "" {
		_ = fut.SetError(&RemoteError{TaskID: res.ID, Msg: res.Err})
		return
	}
	_ = fut.SetResult(res.Value)
}
