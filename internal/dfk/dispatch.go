package dfk

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/executor"
	"repro/internal/fair"
	"repro/internal/future"
	"repro/internal/health"
	"repro/internal/serialize"
	"repro/internal/task"
)

// pendingLaunch is one execution attempt waiting in the dispatch pipeline:
// the task record (with the generation stamp that validates it), the app that
// produced it, and its fully resolved arguments. Retries create a fresh
// pendingLaunch (sharing rec/app/args/payload), so a stale queue entry whose
// attempt already timed out can be recognized and skipped.
//
// Everything an attempt needs lives inside the struct: the attempt future is
// embedded by value and is the future the executor settles
// (executor.IntoSubmitter), and the pendingLaunch itself is the DoneHook of its
// own attempt — two futures per task, attempt and app, and no per-attempt
// closures.
//
// Attempts come from attemptPool, and one goes back to it when it is the
// attempt that concluded its task (FutureDone) and its timeout timer never
// fired: then nothing else can reach it. The executor that settled it dropped
// its reference first (IntoSubmitter), no DFK queue holds a submitted attempt,
// future.complete touches nothing after its hook, and cancelTask reads the
// record's attempt only after winning the task, which this attempt already
// won. Every other attempt — timed out, canceled, failed, retried, or a ghost
// an executor may still settle — is left to the collector.
type pendingLaunch struct {
	// id is the task id, readable without holding rec (app.dfk is the DFK).
	id  int64
	rec *task.Record
	// gen is rec's generation stamp captured at creation. Every pipeline
	// stage revalidates it (Enter, Launch, Outcome) before touching the record, so
	// an entry left in a queue after its task concluded (and its record was
	// recycled for a new task) is recognized and dropped instead of
	// corrupting the record's new occupant.
	gen    uint32
	app    *App
	args   []any
	kwargs map[string]any
	// payload is the encode-once serialization of args/kwargs, built in
	// launch and shared by every attempt: executors reuse the bytes for
	// wire frames and defensive copies instead of re-encoding per attempt.
	// Each pendingLaunch holds its own payload reference from creation
	// until its attempt settles, so queued bytes can never be recycled
	// under a pending attempt. enqueueAttempt takes one more for the executor
	// leg; it travels with the queue entry and is released by whoever drops
	// the entry, or handed to the executor with the submission.
	payload *serialize.Payload
	// attempt is this attempt's outcome future, embedded by value (the
	// zero Future is pending). The TaskTimeout timer is armed against it
	// when the attempt enters the dispatch queue — so a task stuck behind a
	// backlogged lane times out on schedule — and the executor writes its
	// result into it after submission. Completing it (either way) fires the
	// pendingLaunch's own FutureDone exactly once.
	attempt future.Future
	// timer is the attempt timeout, stopped when the attempt settles.
	timer *time.Timer
	// wireID identifies this attempt on the executor wire. The first
	// attempt uses the task id; retries of a timed-out attempt draw a
	// fresh id, because the abandoned attempt may still be in flight and
	// executors key their pending/outstanding state by wire id — reusing
	// the task id would let the stale attempt's late result complete (or
	// corrupt the accounting of) the new one.
	wireID int64
	// priority, tenant and weight copy the record's immutable options: queue
	// comparisons and every fair queue the attempt crosses key on them, on
	// goroutines that do not hold the record.
	priority int
	tenant   string
	weight   int
	// digest is the task's input-content digest (payload.ArgsHash), computed
	// at launch only when the scheduler is a sched.DigestPicker ("" blank
	// otherwise — the hash allocates) and carried across retries so every
	// attempt routes with the same locality key.
	digest string
	// walKey is the task's durable-log key (0 when the WAL is off) and
	// walAttempt this attempt's 1-based launch number across process
	// lifetimes — a resumed task starts past its pre-crash launches. The
	// lane runner logs the Launch record for attempt 1; retries and resumes
	// log Retry records at creation, so the log's launch count never trails
	// the attempts the retry budget has charged.
	walKey     int64
	walAttempt int
	// Health-plane state, threaded attempt to attempt (zero-valued and
	// untouched when Config.Health is nil — value fields only, so the
	// disabled plane adds no allocation to the hot path). kills is the
	// distinct managers this task's attempts have killed (poison quarantine
	// counts them); free counts uncharged retries consumed per failure
	// class; stick is the retry-affinity executor for non-failover classes
	// ("" = none).
	kills []string
	free  [health.NumClasses]uint8
	stick string
}

// attemptPool recycles the attempts that concluded their tasks (see
// pendingLaunch); launch, nextAttempt and resume take every attempt from it.
var attemptPool = sync.Pool{New: func() any { return new(pendingLaunch) }}

// FutureDone makes the pendingLaunch the DoneHook of its own attempt future:
// stop the timeout clock, run retry-or-finish handling if the record is still
// this attempt's generation and the task has not concluded on another path
// (a dispatch-side failure or a cancellation settles the task first and the
// attempt after), drop the attempt's payload reference, and recycle the
// attempt when it concluded the task and its timer can no longer fire.
func (pl *pendingLaunch) FutureDone(af *future.Future) {
	quiet := true
	if pl.timer != nil {
		quiet = pl.timer.Stop()
		pl.timer = nil
	}
	won := false
	if terminal, memoKey, label, ok := pl.rec.Outcome(pl.gen); ok {
		if !terminal {
			won = pl.app.dfk.attemptDone(pl, af, memoKey, label)
		}
		pl.rec.Exit()
	}
	pl.payload.Release()
	if won && quiet {
		*pl = pendingLaunch{}
		attemptPool.Put(pl)
	}
}

// execRelay is the attempt as the DoneHook of a future the executor made
// itself: the adapter for executors that are not IntoSubmitters (llex, test
// doubles, the benchmark's interposer). It copies that future's outcome into
// the attempt — a settled attempt refuses the write, so losing the race to the
// timeout timer is harmless — and releases the executor-leg payload reference,
// which until then keeps the bytes alive for a ghost (attempt timed out,
// executor still holds the frame).
type execRelay pendingLaunch

// FutureDone implements future.DoneHook. The payload reference goes first:
// settling the attempt can recycle it, after which pl is another task's.
func (r *execRelay) FutureDone(ef *future.Future) {
	pl := (*pendingLaunch)(r)
	pl.payload.Release()
	if v, err := ef.Result(); err != nil {
		_ = pl.attempt.SetError(err)
	} else {
		_ = pl.attempt.SetResult(v)
	}
}

// laneLess orders one tenant's routed-but-unsubmitted attempts by dispatch
// priority (higher first), breaking ties by wire id (lower first), so equal-
// priority work keeps submission order and WithPriority is observable the
// moment a lane backs up. Priority is scoped to the submitting tenant: an
// urgent task jumps its own tenant's sub-queue, never another tenant's fair
// share — otherwise priority would be a cross-tenant starvation primitive.
func laneLess(a, b *pendingLaunch) bool {
	if a.priority != b.priority {
		return a.priority > b.priority
	}
	return a.wireID < b.wireID
}

// The dispatch pipeline's queues come in two shapes. The routing queue
// feeding the dispatcher is a sharded MPSC queue (fair.MPSC) keyed by wire
// id: submitters touch only their shard's mutex, so parallel submission
// stops contending on a single queue head, and the single router drains the
// shards round-robin. Routing is a fast hop with no waiting, so it carries
// no fairness machinery of its own — the per-executor lanes feeding the lane
// runners, where tasks actually wait, remain deficit-round-robin weighted
// fair queues (fair.Queue) keyed by the submitting tenant. A single-tenant
// program (the default) sees exactly the old behavior: FIFO routing,
// priority-ordered lanes. With multiple tenants, each lane drains tenants in
// proportion to their WithTenant weights, so one hot submitter cannot
// head-of-line-block the others anywhere tasks wait on the client side (the
// HTEX interchange applies the same discipline past the wire).
//
// Boundedness invariant: these queues are deliberately UNBOUNDED, and per-
// tenant volume is bounded elsewhere — by admission at the App.Submit
// boundary, before a task record exists: always by the tenant's window of
// ready tasks (see New), and by Config.MaxTasksPerTenant / TenantQuotas when
// set. The split is what keeps the pipeline deadlock-free:
// pushes into these queues come from executor completion callbacks
// (dependency edges fire there, and retries re-enter the routing queue from
// attempt callbacks), and a bounded queue could deadlock the pipeline when
// both it and an executor's input queue fill — a worker blocked pushing a
// dependent launch is a worker that never drains the executor queue the
// dispatcher is blocked on. Admission, in contrast, parks only the
// submitting goroutine, which holds no pipeline resources; its gate is
// released by task-retirement bookkeeping that never passes through it, and
// launches from dependency callbacks and retries take a window slot without
// parking. So the lanes cannot deadlock regardless of quota, policy, or
// executor backpressure (an executor's blocking SubmitInto stalls only its
// own lane runner), and every task in these queues is a ready one: what the
// pipeline holds is O(window per tenant) — O(quota) where that is smaller —
// not O(submissions). Tasks waiting on dependencies sit on their inputs, not
// here, and are bounded only by what the script keeps submitting. The one
// exception is an app body that submits into its own DFK: parked at the
// window, it holds a worker until the window drains to half.

// lane is the per-executor leg of the dispatch pipeline: a tenant-fair,
// priority-ordered queue of routed tasks plus a runner goroutine that
// submits them in batches. Per-executor lanes keep one backlogged executor
// (a blocking Submit/SubmitInto into a full input queue) from
// head-of-line-blocking dispatch to every other executor.
type lane struct {
	ex executor.Executor
	// Exactly one is set (newLane): into settles the attempts' own futures;
	// submit returns the executor's, and the runner relays each into its attempt.
	into   executor.IntoSubmitter
	submit func([]serialize.TaskMsg) []*future.Future
	queue  *fair.Queue[*pendingLaunch]
	// queued counts tasks routed to this lane but not yet submitted — load
	// the executor's own Outstanding cannot see yet. DFK.freeze adds it to
	// the sampled load the router and Loads report.
	queued atomic.Int64
}

// newLane builds ex's lane, resolving once how its runner submits. An executor
// with neither batch interface gets one Submit per task behind the batch shape.
func newLane(ex executor.Executor) *lane {
	l := &lane{ex: ex, queue: fair.NewQueue(laneLess)}
	if into, ok := ex.(executor.IntoSubmitter); ok {
		l.into = into
	} else if bs, ok := ex.(executor.BatchSubmitter); ok {
		l.submit = bs.SubmitBatch
	} else {
		l.submit = func(msgs []serialize.TaskMsg) []*future.Future {
			futs := make([]*future.Future, len(msgs))
			for i, m := range msgs {
				futs[i] = ex.Submit(m)
			}
			return futs
		}
	}
	return l
}

// dispatcher is the DFK's routing pump: it drains ready tasks from the
// sharded routing queue and asks the scheduler for a target executor per
// task; the target's lane runner does the actual submission. Replaces the
// seed's inline launch-on-the-callback-goroutine path.
func (d *DFK) dispatcher() {
	defer d.dispatchWG.Done()
	route := d.newRouter()
	for {
		batch, ok := d.queue.Take(d.batchMax)
		if !ok {
			return
		}
		route.reset()
		for _, pl := range batch {
			// A dropped entry gives back the executor-leg payload reference it
			// carries. Dropped here: the attempt already concluded, or the task
			// did and its record was recycled while the entry sat in the queue.
			if pl.attempt.Done() || !pl.rec.Enter(pl.gen) {
				pl.payload.Release()
				continue
			}
			ex, err := route.pick(pl)
			if err != nil {
				// Every admissible breaker open: park, don't fail — the attempt
				// concludes with the overload error; attemptDone classifies it
				// and re-enters dispatch after backoff with a fresh timeout
				// clock. Anything else fails the task first, then completes the
				// attempt: the done hook stops the timeout timer and sees a
				// concluded task.
				if !errors.Is(err, health.ErrNoHealthyExecutor) {
					d.failTask(pl.rec, err)
				}
				pl.rec.Exit()
				_ = pl.attempt.SetError(err)
				pl.payload.Release()
				continue
			}
			pl.rec.Route(ex.Label())
			l := d.lanes[ex.Label()]
			l.queued.Add(1)
			l.queue.Push(pl.tenant, pl.weight, pl)
		}
		d.queue.PutBatch(batch)
	}
}

// laneRunner drains one executor's lane, submitting each drained batch into the
// attempts' own futures, or through the relay for an executor that makes its own.
func (d *DFK) laneRunner(l *lane) {
	defer d.laneWG.Done()
	// Per-runner scratch, reused across batches. Safe because no executor may
	// keep the slices past the call (executor.IntoSubmitter says so; htex
	// copies each TaskMsg and future pointer into its inflight map, threadpool
	// into channel items, and a per-task Submit takes its TaskMsg by value).
	var msgs []serialize.TaskMsg
	var live []*pendingLaunch
	var futs []*future.Future
	var launchKeys []int64
	for {
		batch, ok := l.queue.Take(d.batchMax)
		if !ok {
			return
		}
		// Chaos: a delayed drain models a stalled lane runner — queued tasks
		// keep aging against their attempt timers, which is the contract
		// enqueueAttempt promises (the clock runs while they queue).
		chaos.Sleep(chaos.PointLaneDelay, l.ex.Label())
		msgs = msgs[:0]
		live = live[:0]
		futs = futs[:0]
		launchKeys = launchKeys[:0]
		for _, pl := range batch {
			// Every entry arrives carrying the executor-leg payload reference
			// (enqueueAttempt); an entry dropped below gives it back.
			if pl.attempt.Done() {
				// The attempt timed out (or was canceled) while queued; its
				// retry (if any) is a separate queue entry. Best-effort skip —
				// if the timer wins the race after this check, the stale
				// attempt is still submitted as a ghost: its remote result
				// reconciles by wire id, the executor's write into the
				// already-failed attempt future is refused, and Launch leaves a
				// task its retry already launched as it is.
				pl.payload.Release()
				continue
			}
			// Chaos: an injected submission failure concludes this attempt
			// before it crosses the executor boundary; attemptDone retries it
			// through the scheduler exactly as a real submit error would.
			if err := chaos.Fail(chaos.PointSubmitFail, l.ex.Label()); err != nil {
				_ = pl.attempt.SetError(err)
				pl.payload.Release()
				continue
			}
			from, ok, err := pl.rec.Launch(pl.gen)
			if !ok || err != nil {
				// The task concluded elsewhere: its record is already recycled
				// (the attempt settled with it), or still terminal — then the
				// attempt is settled here, which stops its timer.
				if err != nil {
					_ = pl.attempt.SetError(err)
				}
				pl.payload.Release()
				continue
			}
			d.emitState(pl.id, pl.app.name, pl.tenant, from, task.Launched, l.ex.Label())
			// First launch crossing the executor boundary: charge the durable
			// attempt budget (batched below, one log acquisition per drain).
			// Later attempts were already charged by their Retry records, and
			// a ghost resubmission of a dead attempt is skipped by the Done
			// check above.
			if pl.walKey != 0 && pl.walAttempt == 1 {
				launchKeys = append(launchKeys, pl.walKey)
			}
			m := serialize.TaskMsg{
				ID: pl.wireID, App: pl.app.name, Args: pl.args, Kwargs: pl.kwargs,
				Priority: pl.priority, Tenant: pl.tenant, Weight: pl.weight,
			}
			// Ride the encode-once payload onto the wire message — remote
			// executors frame its bytes verbatim, in-process ones decode
			// their defensive copy from it. The entry's executor-leg reference
			// goes with it: SubmitInto takes it over; on the other arm the relay
			// holds it until the executor's future settles.
			m.AttachPayload(pl.payload)
			msgs = append(msgs, m)
			live = append(live, pl)
			futs = append(futs, &pl.attempt)
		}
		if len(launchKeys) > 0 {
			if err := d.wal.LaunchBatch(launchKeys); err != nil {
				d.emitWAL(0, "launch", err)
			}
		}
		if len(msgs) > 0 {
			if l.into != nil {
				l.into.SubmitInto(msgs, futs)
			} else {
				for i, ef := range l.submit(msgs) {
					ef.SetDoneHook((*execRelay)(live[i]))
				}
			}
		}
		// Submitted work is visible in the executor's Outstanding now;
		// dropping the lane counter after submission means the worst case
		// is a brief double count, never a blind spot.
		l.queued.Add(-int64(len(batch)))
		l.queue.PutBatch(batch)
	}
}

// enqueueAttempt arms one execution attempt — its outcome future, the
// timeout timer against it, and the retry-or-finish hook — and hands it to
// the routing queue, reporting false (with the attempt's payload reference
// dropped) when the task already concluded and nothing was enqueued. The
// caller holds pl.rec. Arming the timer here, not after submission, is what
// makes the timeout contract hold for tasks stuck behind a backlogged lane:
// the clock runs while they queue. The per-call WithTimeout/WithDeadline
// options override Config.TaskTimeout; a deadline bounds each attempt by the
// wall-clock time remaining.
func (d *DFK) enqueueAttempt(pl *pendingLaunch) bool {
	if !pl.rec.Arm(pl.payload, pl.walKey, &pl.attempt, pl.wireID) {
		pl.payload.Release()
		return false
	}
	dur := d.cfg.TaskTimeout
	if t := pl.rec.Timeout; t > 0 {
		dur = t
	}
	if dl := pl.rec.Deadline; !dl.IsZero() {
		rem := time.Until(dl)
		if rem <= 0 {
			// The deadline has already passed — first attempts and retries
			// alike fail here, synchronously, rather than racing a zero
			// timer against dispatch (a fast executor could otherwise
			// complete work past its deadline). failTask before settling
			// the attempt keeps its completion stage from retrying.
			err := fmt.Errorf("%w: deadline %v already passed", ErrTimeout, dl.Format(time.RFC3339Nano))
			d.failTask(pl.rec, err)
			pl.attempt.SetDoneHook(pl)
			_ = pl.attempt.SetError(err)
			return true
		}
		if dur <= 0 || rem < dur {
			dur = rem
		}
	}
	if dur > 0 {
		pl.timer = time.AfterFunc(dur, func() {
			_ = pl.attempt.SetError(fmt.Errorf("%w after %v", ErrTimeout, dur))
		})
	}
	// The executor-leg payload reference is taken before the done hook exists:
	// from then on a cancellation or the timer can settle the attempt — and
	// drop the attempt's own reference — at any moment, and the pooled payload
	// must not be recycled under an entry still travelling the queues.
	pl.payload.Retain()
	pl.attempt.SetDoneHook(pl)
	d.queue.Push(pl.wireID, pl)
	return true
}

// attemptDone handles the outcome of one attempt of a task that has not
// concluded: completion, or retry through the scheduler while budget remains
// (§4.1: "Parsl is able to retry the task by resubmitting it to an
// executor"). A retry re-enters the dispatch queue as a fresh attempt, so the
// scheduler re-picks an executor from current load — a task lost with a dying
// executor naturally drains toward a healthier one. memoKey and label (the
// executor the attempt was routed to, "" if it never was) come from the
// Outcome stage, whose hold keeps the record valid throughout even if this
// call retires it. It reports whether the attempt's result concluded the task.
func (d *DFK) attemptDone(pl *pendingLaunch, af *future.Future, memoKey, label string) bool {
	v, err := af.Result()
	if err == nil {
		if d.hp != nil && label != "" {
			d.hp.recordSuccess(label)
		}
		return d.completeTask(pl.rec, memoKey, v)
	}
	// The attempt is abandoned; tell its executor to drop whatever it still
	// holds under this wire id. For errors the executor itself reported this
	// is a no-op (its bookkeeping is already clean), but a timeout leaves
	// the attempt live executor-side — and if its frame was lost on the wire
	// (drop, corruption) the executor would otherwise carry the ghost
	// entry, and its inflated Outstanding() load signal, forever.
	if c, ok := d.executors[label].(executor.Canceler); ok {
		c.Cancel(pl.wireID)
	}
	if d.hp != nil {
		// The health plane owns failure handling end to end: classification,
		// breaker/quarantine bookkeeping, budget charging, and backoff-paced
		// re-dispatch.
		d.hp.attemptFailed(pl, label, err)
		return false
	}
	if next := d.nextAttempt(pl, label, true, err); next != nil {
		d.enqueueAttempt(next)
	}
	return false
}

// nextAttempt charges the failed attempt pl against the retry budget (unless
// the health plane forgives it) and builds the attempt that follows, or fails
// the task with err and returns nil when no budget — or no legal transition —
// remains. The new attempt is another object (the old one may still sit in a
// lane queue and must stay recognizable as dead) with a fresh wire id (the
// timed-out attempt may still be running remotely under the old one; ids are
// drawn from the task id sequence, so they never collide with any task's
// first-attempt id). It reuses the encode-once payload — resubmission costs
// zero re-serialization no matter how many attempts it takes — taking its own
// reference before the old attempt's drops.
func (d *DFK) nextAttempt(pl *pendingLaunch, label string, charge bool, err error) *pendingLaunch {
	from, ok := pl.rec.Retry(charge)
	if !ok {
		d.failTask(pl.rec, err)
		return nil
	}
	d.emitState(pl.id, pl.app.name, pl.tenant, from, task.Retrying, label)
	next := attemptPool.Get().(*pendingLaunch)
	*next = pendingLaunch{
		id: pl.id, rec: pl.rec, gen: pl.gen, app: pl.app,
		args: pl.args, kwargs: pl.kwargs,
		payload: pl.payload.Retain(),
		wireID:  d.ids.Add(1) - 1, priority: pl.priority,
		tenant: pl.tenant, weight: pl.weight, digest: pl.digest,
		walKey: pl.walKey, walAttempt: pl.walAttempt + 1,
		kills: pl.kills, free: pl.free,
	}
	// Log the retry before it can run: a crash after the new attempt launches
	// but before its record lands must still replay with the budget charged.
	// Forgiven retries are logged too — the durable launch count tracks every
	// launch, so recovery's replay stays truthful.
	if next.walKey != 0 {
		if werr := d.wal.Retry(next.walKey, next.walAttempt); werr != nil {
			d.emitWAL(pl.id, "retry", werr)
		}
	}
	return next
}
