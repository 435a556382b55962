// Package task defines the task record used by the DataFlowKernel. A task is a
// node in the dynamic DAG (§3.4); edges are the futures exchanged between
// tasks. The DFK owns state transitions; this package provides the record and
// its invariants.
package task

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fair"
	"repro/internal/future"
	"repro/internal/serialize"
)

// State is the lifecycle of a task inside the DataFlowKernel, mirroring the
// states Parsl's monitoring records (§4.6).
type State int32

const (
	// Unsched: created but dependencies not yet examined.
	Unsched State = iota
	// Pending: waiting on unresolved dependencies (data staging included:
	// a transfer is one more dependency, §4.5).
	Pending
	// Launched: handed to an executor, result future outstanding.
	Launched
	// Retrying: failed and resubmitted; Attempts has been incremented.
	Retrying
	// Done: completed successfully; result set on the AppFuture.
	Done
	// Failed: exhausted retries; exception set on the AppFuture.
	Failed
	// Memoized: completed from the memo table / checkpoint without launch.
	Memoized
)

// stateNames is indexed by State.
var stateNames = [...]string{
	Unsched:  "unsched",
	Pending:  "pending",
	Launched: "launched",
	Retrying: "retrying",
	Done:     "done",
	Failed:   "failed",
	Memoized: "memoized",
}

// String implements fmt.Stringer.
func (s State) String() string {
	if s >= 0 && int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", int32(s))
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == Done || s == Failed || s == Memoized }

// validNext encodes the permitted state machine: validNext[s] is the bitmask
// of states reachable from s (terminal states reach nothing). Every
// transition method validates against it; invalid transitions indicate
// engine bugs and are surfaced as errors rather than silently accepted.
var validNext = [...]uint16{
	Unsched:  1<<Pending | 1<<Launched | 1<<Memoized | 1<<Failed,
	Pending:  1<<Launched | 1<<Memoized | 1<<Failed,
	Launched: 1<<Done | 1<<Failed | 1<<Retrying,
	Retrying: 1<<Launched | 1<<Failed,
	Memoized: 0,
}

// canMoveTo reports whether the state machine permits s -> n.
func (s State) canMoveTo(n State) bool {
	return s >= 0 && int(s) < len(validNext) && n >= 0 && validNext[s]>>uint(n)&1 != 0
}

// Options are one submission's per-call options (App.Submit's CallOptions
// resolved against the app's and the DFK's defaults). They are fixed by Create
// and immutable for the task's life, so whoever holds the record reads them as
// plain fields, without the mutex.
type Options struct {
	// Hints restrict which executors may run the task; empty means any.
	Hints []string
	// Tenant is the fair-queuing tenant id ("" = default tenant) and Weight
	// its DRR weight (0 = leave the tenant's current weight, default 1).
	Tenant string
	Weight int
	// MaxRetries is the retry budget; Priority the dispatch priority (higher
	// runs first).
	MaxRetries int
	Priority   int
	// Timeout overrides Config.TaskTimeout per attempt (0 = DFK default);
	// Deadline is an absolute bound (zero = none).
	Timeout  time.Duration
	Deadline time.Time
	// MemoKeyOverride is an explicit memoization key ("" = computed from the
	// arguments).
	MemoKeyOverride string
	// Gate is the tenant admission gate the task holds (nil for the DFK's
	// own stage-in and recovered tasks): the first Arm takes its window slot,
	// and the one caller that wins Finish releases it.
	Gate *fair.Gate
}

// Record is one task's state in the DataFlowKernel. Identity fields and
// Options are set at creation and immutable; fields under mu are mutated by
// the DFK as execution progresses, one critical section per lifecycle stage:
// Create, Arm, Launch, Outcome, Finish, Retire/Exit.
type Record struct {
	ID      int64
	AppName string
	// Args is the record's own copy of a waiting task's positional arguments
	// (HoldArgs; empty for a task launched inside Submit). It holds futures
	// until the last input resolves, when the DFK resolves them in place. Its
	// backing array is the record's: recycling clears it, and keeps it for the
	// next occupant if it holds at most maxKeptArgs elements.
	Args []any
	// Kwargs are the keyword arguments: the caller's map for a task launched
	// inside Submit, a copy the DFK takes for a waiting task.
	Kwargs map[string]any

	// Future is the AppFuture returned to the program at submission time.
	Future *future.Future

	Options

	mu       sync.Mutex
	attempts int
	executor string // label of the executor the task was launched on
	memoKey  string

	// deps is the dependency countdown, gen<<32 | unresolved inputs, kept
	// outside mu so that an edge costs one compare-and-swap (DepDone). The
	// creator stores it (WaitInputs) while its hold keeps gen fixed. A record
	// with inputs outstanding is never recycled, so each input's FutureDone
	// finds its own generation here; the input that counts it to zero does so
	// under mu, where recycling reads it. Recycling zeroes it.
	deps atomic.Uint64
	// waiter is told when the inputs are all resolved or one of them failed
	// (WaitInputs; nil for a task without inputs).
	waiter InputWaiter

	// attemptFut is the current execution attempt's outcome future, recorded
	// so a cancellation arriving from outside the dispatch pipeline can
	// conclude the attempt (its completion stage then drops it).
	attemptFut *future.Future

	// payload is the encode-once serialization of the resolved arguments,
	// installed by the first Arm. Every later consumer — retries, the memo
	// hash, executor wire frames, deep copies — reuses these bytes instead of
	// re-encoding.
	payload *serialize.Payload

	// Recycling bookkeeping (all under mu). gen is the generation stamp:
	// asynchronous consumers (context watchers, the dispatch pipeline)
	// capture it at registration and revalidate with Enter before touching
	// the record, so a pooled record reused for a new task is never corrupted
	// by a straggler holding a stale pointer. holds counts consumers currently
	// inside an Enter/Exit window; retired marks that the record's owner retired
	// it. A retired record that nobody holds and that waits on no input is
	// reset and returned to the pool by whichever comes last: Retire, the last
	// Exit, or the last input's FutureDone. Inputs capture nothing: waiting on
	// the countdown is what keeps the record theirs.
	gen     uint32
	holds   int32
	state   State // the lifecycle state; here it shares a word with retired
	retired bool

	// walKey is the task's durable key in the write-ahead log (0 = not
	// logged). Recovery dedups by it: a replayed task keeps its pre-crash
	// key, so its post-crash transitions append to the same durable history.
	walKey int64

	// cancelStop detaches the context watcher (context.AfterFunc's stop);
	// stored here so Finish can hand it back without allocating a callback.
	cancelStop func() bool
}

// recordPool recycles terminal Records. The AppFuture is deliberately NOT pooled: it is the
// user-visible handle, may outlive the record arbitrarily, and keeps the
// task's result reachable after the record has been reused.
var recordPool = sync.Pool{New: func() any { return new(Record) }}

// maxKeptArgs is the longest argument list whose backing array a recycled
// record keeps: four interface values are 64 B, one allocator size class. A
// longer array is dropped, so a pool of records that once carried long lists
// does not pin their memory.
const maxKeptArgs = 4

// lockedRecord takes a record from the pool and binds its identity. It
// returns with r.mu held: initialization happens under the record's mutex so
// a straggler probing a stale handle (Enter on an old generation) never races
// the reuse.
func lockedRecord(id int64, appName string, kwargs map[string]any) *Record {
	r := recordPool.Get().(*Record)
	r.mu.Lock()
	r.ID = id
	r.AppName = appName
	r.Kwargs = kwargs
	r.Future = future.NewForTask(id)
	r.state = Unsched
	return r
}

// NewRecord creates a task record in the Unsched state with its AppFuture, a
// copy of args and zero Options, held by nobody.
func NewRecord(id int64, appName string, args []any, kwargs map[string]any) *Record {
	r := lockedRecord(id, appName, kwargs)
	r.HoldArgs(args)
	r.mu.Unlock()
	return r
}

// Create is the first lifecycle stage: a Pending record carrying its per-call
// options, returned together
// with its generation stamp and with the creator holding it. The hold — drop
// it with Exit once the record is wired — is what lets the creator publish the
// record (context watcher, dependency callbacks) and keep using it: a
// terminal path racing the wiring retires the record but cannot recycle it.
// The record keeps no positional arguments: a task that waits on inputs gives
// it a copy with HoldArgs.
func Create(id int64, appName string, kwargs map[string]any, o Options) (*Record, uint32) {
	r := lockedRecord(id, appName, kwargs)
	r.Options = o
	_ = r.moveLocked(Pending) // Unsched -> Pending cannot fail
	r.holds = 1
	gen := r.gen
	r.mu.Unlock()
	return r, gen
}

// HoldArgs copies a waiting task's positional arguments into Args, in the
// record's own backing array when it has room. Only the creator calls it,
// holding the record and before it registers the record on any input: from
// then on the task reads its arguments from the record, never from the
// caller's slice, which the caller may reuse as soon as Submit returns.
func (r *Record) HoldArgs(args []any) {
	r.Args = append(r.Args[:0], args...)
}

// Resume seeds the durable identity of a task re-admitted by crash recovery:
// its pre-crash WAL key, so its terminal record settles the same logged task,
// and the launches already charged, so the retry budget spans both lifetimes.
func (r *Record) Resume(walKey int64, attempts int) {
	r.mu.Lock()
	r.walKey, r.attempts = walKey, attempts
	r.mu.Unlock()
}

// Enter validates a generation stamp and, on success, takes a hold that
// keeps the record from being recycled until the matching Exit. It returns
// false when the record has moved on to a new generation — the caller's
// handle is stale and the record must not be touched. A record that is
// retired but not yet recycled still admits holds: its fields remain valid
// until the last hold drops.
func (r *Record) Enter(gen uint32) bool {
	r.mu.Lock()
	ok := r.gen == gen
	if ok {
		r.holds++
	}
	r.mu.Unlock()
	return ok
}

// Exit drops a hold taken by Create, Enter or Outcome, recycling the record if
// it was retired and this was the last hold. Exit without a matching hold is
// an engine bug (a missed generation check) and panics.
func (r *Record) Exit() {
	r.mu.Lock()
	r.exitLocked()
}

// exitLocked is Exit with r.mu held; it unlocks.
func (r *Record) exitLocked() {
	if r.holds <= 0 {
		id := r.ID
		r.mu.Unlock()
		panic(fmt.Sprintf("task %d: Exit without matching Enter (use-after-recycle guard)", id))
	}
	r.holds--
	if r.recyclableLocked() {
		r.recycleLocked()
		return
	}
	r.mu.Unlock()
}

// recyclableLocked reports, with r.mu held, whether the record is retired,
// held by nobody and waiting on no input: only then can no consumer reach it.
func (r *Record) recyclableLocked() bool {
	return r.retired && r.holds == 0 && uint32(r.deps.Load()) == 0
}

// Retire marks the record as concluded and released by its owner. If no
// consumer holds it and no input is outstanding, the record is reset and
// returned to the pool immediately; otherwise the last Exit or the last input
// recycles it. Called exactly once per task: by the DFK once the task
// concluded, or by Graph.Retire.
func (r *Record) Retire() {
	r.mu.Lock()
	if r.retired {
		id := r.ID
		r.mu.Unlock()
		panic(fmt.Sprintf("task %d: double retire", id))
	}
	r.retired = true
	if r.recyclableLocked() {
		r.recycleLocked()
		return
	}
	r.mu.Unlock()
}

// recycleLocked resets the record for reuse and returns it to the pool.
// Called with r.mu held; unlocks it. The generation bump is what invalidates
// every outstanding handle: a later Enter with the old stamp fails.
func (r *Record) recycleLocked() {
	r.gen++
	r.ID = 0
	r.AppName = ""
	clear(r.Args) // a pooled record pins none of its last task's arguments
	if cap(r.Args) > maxKeptArgs {
		r.Args = nil
	} else {
		r.Args = r.Args[:0]
	}
	r.Kwargs = nil
	r.Future = nil
	r.Options = Options{}
	r.state = Unsched
	r.attempts = 0
	r.executor = ""
	r.memoKey = ""
	r.deps.Store(0)
	r.waiter = nil
	r.attemptFut = nil
	r.payload = nil
	r.walKey = 0
	r.retired = false
	r.cancelStop = nil
	r.mu.Unlock()
	recordPool.Put(r)
}

// moveLocked validates s against the state machine and applies it. Called with
// r.mu held. Terminal states are sticky. The record keeps no history: the
// monitor stream (the DFK's state events) is the record of a task's
// transitions.
func (r *Record) moveLocked(s State) error {
	if r.state.Terminal() {
		return fmt.Errorf("task %d: transition %v -> %v from terminal state", r.ID, r.state, s)
	}
	if !r.state.canMoveTo(s) {
		return fmt.Errorf("task %d: illegal transition %v -> %v", r.ID, r.state, s)
	}
	r.state = s
	return nil
}

// Watch stores the context watcher's detach function (context.AfterFunc's
// stop) for Finish to hand back. It reports false when the task is already
// terminal — the watcher itself, or another path, concluded it first — and
// the caller then detaches the watcher itself.
func (r *Record) Watch(stop func() bool) bool {
	r.mu.Lock()
	ok := !r.state.Terminal()
	if ok {
		r.cancelStop = stop
	}
	r.mu.Unlock()
	return ok
}

// Arm installs an execution attempt: the encode-once payload and the durable
// log key (both the same for every attempt of a task; the record takes over
// the caller's payload reference on the first Arm), and this attempt's outcome
// future and the executor it was routed to ("" when routing found none). It
// refuses a terminal record — the task was concluded (canceled, typically)
// before the attempt could start — and the caller then must not enqueue the
// attempt and keeps its payload reference. The first Arm takes the
// task's window slot on its Gate, in the same critical section Finish reads
// the payload in, so the slot is released exactly when it was taken
// (Final.Payload is non-nil).
func (r *Record) Arm(p *serialize.Payload, walKey int64, af *future.Future, executor string) bool {
	r.mu.Lock()
	ok := !r.state.Terminal()
	if ok {
		if r.payload == nil && r.Gate != nil {
			r.Gate.Ready()
		}
		r.payload, r.walKey, r.attemptFut, r.executor = p, walKey, af, executor
	}
	r.mu.Unlock()
	return ok
}

// Launch is the lane runner's stage: it validates the generation stamp and
// moves the task to Launched. ok is false when the handle is stale; err reports a transition the
// state machine forbids, which for a live handle means the task already
// concluded. A task that is already Launched (a ghost resubmission racing its
// own retry) is left as it is. No hold is left behind either way.
func (r *Record) Launch(gen uint32) (from State, ok bool, err error) {
	r.mu.Lock()
	if r.gen != gen {
		r.mu.Unlock()
		return 0, false, nil
	}
	from = r.state
	if from != Launched {
		err = r.moveLocked(Launched)
	}
	r.mu.Unlock()
	return from, true, err
}

// Outcome opens the completion stage of one attempt: it validates the
// generation stamp, takes a hold (drop it with Exit) and reads, in the same
// critical section, what attempt handling decides from — whether the task
// already concluded on another path, and its memoization key.
func (r *Record) Outcome(gen uint32) (terminal bool, memoKey string, ok bool) {
	r.mu.Lock()
	if r.gen != gen {
		r.mu.Unlock()
		return false, "", false
	}
	r.holds++
	terminal, memoKey = r.state.Terminal(), r.memoKey
	r.mu.Unlock()
	return terminal, memoKey, true
}

// Retry charges one attempt against the retry budget (when charge is set; the
// health plane forgives some failure classes) and reports whether the task
// may run again. A launched task moves to Retrying; a task whose attempt
// concluded while still queued is still Pending and simply re-enters the
// queue — from tells the two apart.
func (r *Record) Retry(charge bool) (from State, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	from = r.state
	if charge {
		if r.attempts++; r.attempts > r.MaxRetries {
			return from, false
		}
	}
	return from, from == Pending || from == Retrying || r.moveLocked(Retrying) == nil
}

// Final is what the winner of Finish takes over from the record: everything
// retirement consumes, read in the terminal transition's own critical section.
type Final struct {
	From     State
	Executor string
	// WALKey is the durable-log key to close (0 = task never logged).
	WALKey int64
	// Payload is the record's payload reference (nil if never armed, which
	// is also when the task holds no window slot).
	Payload *serialize.Payload
	// CancelStop detaches the context watcher (nil if none).
	CancelStop func() bool
}

// Finish is the terminal transition. Exactly one caller per task is told ok:
// a record that is already terminal — in another state or the same one —
// refuses, so concurrent terminal paths need no guard of their own.
func (r *Record) Finish(to State) (fin Final, ok bool) {
	r.mu.Lock()
	fin.From = r.state
	if ok = to.Terminal() && r.moveLocked(to) == nil; ok {
		fin.Executor, fin.WALKey, fin.Payload, fin.CancelStop = r.executor, r.walKey, r.payload, r.cancelStop
		r.cancelStop = nil
	}
	r.mu.Unlock()
	return fin, ok
}

// State returns the current state.
func (r *Record) State() State {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// SetState transitions the task, validating against the state machine. It
// returns an error on an illegal transition. Terminal states are sticky, and
// setting the current state again is a no-op.
func (r *Record) SetState(s State) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state == s {
		return nil
	}
	return r.moveLocked(s)
}

// SetMemoKey stores the memoization key computed when the task became ready.
func (r *Record) SetMemoKey(k string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.memoKey = k
}

// InputWaiter is what a task waiting on its inputs reports to: the record
// calls it from the FutureDone of the input that settles it, on that input's
// completing goroutine. Neither method may block.
type InputWaiter interface {
	// InputsReady is called once the last input resolved, with the record
	// Pending and held for the call: the waiter launches the task.
	InputsReady(r *Record, gen uint32)
	// InputFailed is called for each input that failed, with the record held
	// for the call and the failed input not yet counted down: the waiter must
	// leave the task terminal (a no-op once it is).
	InputFailed(r *Record, input *future.Future)
}

// WaitInputs makes the record wait on n inputs, reporting to w. Only the
// creator calls it, holding the record (the hold keeps gen current) and
// before it registers the record as the DoneHook of its inputs, one
// registration per input (SetDoneHook). Until the last of them fires the
// record is not recycled, whatever else concludes the task.
func (r *Record) WaitInputs(gen uint32, n int, w InputWaiter) {
	r.waiter = w
	r.SetPendingDeps(gen, n)
}

// FutureDone implements future.DoneHook: one of the record's inputs settled.
// The input has not been counted down yet, so the record is not recyclable
// and the countdown word still carries its generation. A resolved input costs
// one compare-and-swap unless it is the last; a failed one holds the record
// across InputFailed and its countdown, so the record outlives both.
func (r *Record) FutureDone(input *future.Future) {
	gen := uint32(r.deps.Load() >> 32)
	if input.Err() == nil {
		if r.DepDone(gen) {
			r.waiter.InputsReady(r, gen)
			r.Exit()
		}
		return
	}
	if !r.Enter(gen) {
		return
	}
	r.waiter.InputFailed(r, input)
	// The task is terminal now, so its countdown launches nothing, and the
	// hold keeps this countdown from recycling the record: Exit does.
	r.DepDone(gen)
	r.Exit()
}

// SetPendingDeps starts the dependency countdown of generation gen at n
// unresolved inputs. Only the creator calls it, holding the record (the hold
// keeps gen current) and before the first input can count down.
func (r *Record) SetPendingDeps(gen uint32, n int) {
	r.deps.Store(uint64(gen)<<32 | uint64(uint32(n)))
}

// DepDone counts one resolved input of generation gen down. It reports true
// to the caller that resolved the last one, and then only if the record is
// still on generation gen and Pending: that caller holds the record (drop it
// with Exit) and launches the task. Every other input costs one
// compare-and-swap and never takes the record lock. The last one counts down
// under the lock, where recycling reads the countdown: a record that
// concluded while it waited is recycled here if nothing else holds it. A
// stale generation, or a countdown already at zero, changes nothing and
// reports false.
func (r *Record) DepDone(gen uint32) bool {
	for {
		w := r.deps.Load()
		if uint32(w>>32) != gen || uint32(w) == 0 {
			return false
		}
		if uint32(w) > 1 {
			if r.deps.CompareAndSwap(w, w-1) {
				return false
			}
			continue
		}
		r.mu.Lock()
		if r.deps.CompareAndSwap(w, w-1) {
			break
		}
		r.mu.Unlock()
	}
	if r.gen == gen && r.state == Pending {
		r.holds++
		r.mu.Unlock()
		return true
	}
	if r.recyclableLocked() {
		r.recycleLocked()
		return false
	}
	r.mu.Unlock()
	return false
}

// Attempt returns the current attempt's outcome future (nil before the task
// first becomes ready).
func (r *Record) Attempt() *future.Future {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.attemptFut
}

// String implements fmt.Stringer.
func (r *Record) String() string {
	return fmt.Sprintf("Task{%d %s %s}", r.ID, r.AppName, r.State())
}
