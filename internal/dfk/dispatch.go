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
	"repro/internal/sched"
	"repro/internal/serialize"
	"repro/internal/task"
)

// pendingLaunch is one execution attempt on its way to an executor: the task
// record (with the generation stamp that validates it), the app that produced
// it, and its arguments' payload. Retries create a fresh pendingLaunch
// (sharing rec/app/payload), so a stale lane entry whose attempt already
// timed out can be recognized and skipped.
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
// its reference first (IntoSubmitter), no lane holds a submitted attempt,
// future.complete touches nothing after its hook, and cancelTask reads the
// record's attempt only after winning the task, which this attempt already
// won. Every other attempt — timed out, canceled, failed, retried, or a ghost
// an executor may still settle — is left to the collector.
type pendingLaunch struct {
	// id is the task id, readable without holding rec (app.dfk is the DFK).
	id  int64
	rec *task.Record
	// gen is rec's generation stamp captured at creation. Every later stage
	// revalidates it (Launch, Outcome, a backoff's Enter) before touching the
	// record, so an entry left in a lane after its task concluded (and its
	// record was recycled for a new task) is recognized and dropped instead
	// of corrupting the record's new occupant.
	gen uint32
	app *App
	// payload is the encode-once serialization of the resolved arguments,
	// built in launch and shared by every attempt. Each pendingLaunch holds a
	// reference from creation until its attempt settles; armAttempt takes one
	// more for the executor leg, which travels with the lane entry and is
	// released by whoever drops the entry, or handed to the executor.
	payload *serialize.Payload
	// attempt is this attempt's outcome future, embedded by value (the zero
	// Future is pending): the timeout timer or the executor settles it, which
	// fires the pendingLaunch's own FutureDone exactly once.
	attempt future.Future
	// timer is the attempt timeout, stopped when the attempt settles.
	timer *time.Timer
	// wireID identifies this attempt on the executor wire: the task id for
	// the first attempt, a fresh id for each retry, since the abandoned
	// attempt may still be in flight and executors key their state by wire
	// id, so its late result must not complete the new one.
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
	// lifetimes. The lane runner logs the Launch record for attempt 1;
	// retries and resumes log Retry records at creation.
	walKey     int64
	walAttempt int
	// lane is the executor armAttempt routed this attempt to, nil if none.
	// Before routing, a non-failover retry carries its predecessor's lane
	// here, which route prefers while its breaker admits (retry affinity).
	lane *lane
	// Health-plane state, threaded attempt to attempt (zero and untouched
	// when Config.Health is nil). kills is the distinct managers this task's
	// attempts have killed (quarantine counts them); free counts uncharged
	// retries per failure class.
	kills []string
	free  [health.NumClasses]uint8
	// next links the attempt into its lane's inbox.
	next *pendingLaunch
}

// attemptPool recycles the attempts that concluded their tasks (see
// pendingLaunch); launch, nextAttempt and resume take every attempt from it.
var attemptPool = sync.Pool{New: func() any { return new(pendingLaunch) }}

// FutureDone makes the pendingLaunch the DoneHook of its own attempt future:
// stop the timeout clock, run retry-or-finish handling if the record is still
// this attempt's generation and the task has not concluded on another path
// (a routing failure or a cancellation settles the task first and the
// attempt after), drop the attempt's payload reference, and recycle the
// attempt when it concluded the task and its timer can no longer fire.
func (pl *pendingLaunch) FutureDone(af *future.Future) {
	quiet := true
	if pl.timer != nil {
		quiet = pl.timer.Stop()
		pl.timer = nil
	}
	won := false
	if terminal, memoKey, ok := pl.rec.Outcome(pl.gen); ok {
		if !terminal {
			won = pl.app.dfk.attemptDone(pl, af, memoKey)
		} else {
			// Abandoned: its task concluded first (canceled).
			pl.lane.drop(pl.wireID)
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

// The dispatch pipeline is one hop: a ready task is routed on the goroutine
// that made it ready — the submitter for a task with no inputs, the goroutine
// that completed its last input for a dependent, a timer for a retry after
// backoff — and pushed into the lane of the executor the scheduler picked.
// Each lane is a deficit-round-robin weighted fair queue (fair.Queue) keyed
// by tenant and priority-ordered within it, so one hot submitter cannot
// head-of-line-block the others on the client side (the HTEX interchange
// applies the same discipline past the wire).
//
// Boundedness invariant: the lanes are deliberately UNBOUNDED; admission
// bounds each tenant at App.Submit, before a task record exists, by its
// window of ready tasks (see New) and any quota. Pushes come from executor
// completion callbacks (dependency edges, retries), so a bounded lane could
// deadlock once it and an executor's input queue fill: a worker blocked
// pushing a dependent never drains the queue the lane runner is blocked on.
// Admission parks only the submitter, which holds no pipeline resources; its
// gate is released by retirement bookkeeping that never passes through it,
// and launches from callbacks take a window slot without parking. So the
// lanes cannot deadlock (a blocking SubmitInto stalls only its own runner),
// and hold ready tasks only: O(window per tenant), not O(submissions). The
// one exception is an app body that submits into its own DFK: parked at the
// window, it holds a worker until the window drains to half.

// lane is the DFK's one record of an executor: the per-executor leg of the
// dispatch pipeline, a queue of routed tasks plus a runner goroutine that
// submits them in batches, so one backlogged executor (a blocking SubmitInto
// into a full input queue) cannot hold up dispatch to the others. A lane is
// also its executor as the scheduler sees it (its Load counts the tasks routed
// but not yet submitted) and as a concluding attempt sees it (breaker,
// canceler, label), so neither a pick nor an attempt looks it up.
type lane struct {
	// The fields routing touches come first, so a pick and a push read and
	// write few cache lines. queued counts tasks routed here but not yet
	// submitted, load the executor cannot see yet: routing raises it at once,
	// the runner lowers it once it has submitted them. breaker is nil unless
	// the health plane is on.
	queued  atomic.Int64
	d       *DFK
	breaker *health.Breaker
	label   string
	// inbox holds attempts pushed while the runner is parked, newest first,
	// linked by next: such a push is one compare-and-swap. A push that finds
	// the runner awake goes into queue, so queue shows what waits while the
	// runner is inside the executor. wake holds at most one token for the
	// parked runner; Shutdown closes done.
	inbox  atomic.Pointer[pendingLaunch]
	parked atomic.Bool
	wake   chan struct{}
	done   chan struct{}
	queue  *fair.Queue[*pendingLaunch]

	executor.Executor
	// cancel is the executor as an executor.Canceler, nil if it is not one.
	cancel executor.Canceler
	// probe reads the executor's own load signals, bound once.
	probe sched.Probe
	// one is the lane alone as a candidate set, for a task pinned to it.
	one []executor.Executor
	// Exactly one is set (newLane): into settles the attempts' own futures;
	// submit returns the executor's, and the runner relays each into its attempt.
	into   executor.IntoSubmitter
	submit func([]serialize.TaskMsg) []*future.Future
}

// newLane builds d's lane for ex, resolving once how its runner submits (one
// Submit per task for an executor with neither batch interface).
func newLane(d *DFK, ex executor.Executor) *lane {
	l := &lane{
		Executor: ex, probe: sched.NewProbe(ex), d: d, label: ex.Label(),
		wake: make(chan struct{}, 1), done: make(chan struct{}), queue: fair.NewQueue(laneLess),
	}
	l.cancel, _ = ex.(executor.Canceler)
	l.one = []executor.Executor{l}
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

// name is the lane's executor label, "" for no lane.
func (l *lane) name() string {
	if l == nil {
		return ""
	}
	return l.label
}

// drop tells a Canceler executor to forget an abandoned attempt's wire id.
func (l *lane) drop(wireID int64) {
	if l != nil && l.cancel != nil {
		l.cancel.Cancel(wireID)
	}
}

// Load is the executor's load as a scheduler reads it (sched.LoadOf): its
// own signals, with the lane's backlog added to Outstanding.
func (l *lane) Load() sched.Load {
	ld := l.probe.Load()
	ld.Outstanding += int(l.queued.Load())
	return ld
}

// push hands an armed attempt to the runner: into the inbox while it is
// parked, waking it if the inbox was empty, else into queue, waking it only
// if it parked meanwhile. The runner sets parked before it looks at queue a
// last time and push fills queue before it looks at parked, so one of the two
// sees the other.
func (l *lane) push(pl *pendingLaunch) {
	if !l.parked.Load() {
		l.queue.Push(pl.tenant, pl.weight, pl)
		if l.parked.Load() {
			l.signal()
		}
		return
	}
	for {
		old := l.inbox.Load()
		pl.next = old
		if l.inbox.CompareAndSwap(old, pl) {
			if old == nil {
				l.signal()
			}
			return
		}
	}
}

// signal leaves the parked runner a wake-up token, unless one is waiting.
func (l *lane) signal() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// drainInbox moves the inbox into queue, oldest first. Runner only: a drain
// elsewhere could take the attempts a wake-up token announced after the
// runner spent that token, and leave them in queue while it sleeps.
func (l *lane) drainInbox() {
	if l.inbox.Load() == nil {
		return
	}
	var oldest *pendingLaunch
	for pl := l.inbox.Swap(nil); pl != nil; {
		next := pl.next
		pl.next, oldest = oldest, pl
		pl = next
	}
	for pl := oldest; pl != nil; {
		next := pl.next
		pl.next = nil
		l.queue.Push(pl.tenant, pl.weight, pl)
		pl = next
	}
}

// take returns up to max attempts in fair, priority order, parking while
// there are none; ok is false once Shutdown closed the lane and it is empty.
// Runner only; hand the batch back with queue.PutBatch.
func (l *lane) take(max int) (batch []*pendingLaunch, ok bool) {
	for {
		l.drainInbox()
		if batch = l.queue.TryTake(max); len(batch) > 0 {
			return batch, true
		}
		l.parked.Store(true)
		if l.queue.Len() == 0 && l.inbox.Load() == nil {
			select {
			case <-l.wake:
			case <-l.done:
				l.drainInbox()
				l.queue.Close()
				return l.queue.Take(max)
			}
		}
		l.parked.Store(false)
	}
}

// route picks the lane for one attempt, on the calling goroutine. Hints
// narrow the candidates to the lanes they name; with the health plane on, a
// retry that carries a lane prefers it while that breaker admits (retry
// affinity), and lanes whose breakers reject work are filtered out: an all-open
// set yields ErrNoHealthyExecutor (an overload the attempt parks on) unless
// the task is pinned and PinnedFailFast fails it. The scheduler chooses among
// the rest, reading live load; a sched.DigestPicker also sees the task's
// input digest. A pick allocates nothing unless a task names several
// executors or a breaker rejects one.
func (d *DFK) route(pl *pendingLaunch) (*lane, error) {
	candidates := d.views
	hints := pl.rec.Hints
	switch {
	case len(hints) > 0:
		candidates = nil
		for _, h := range hints {
			l, ok := d.lanes[h]
			if !ok {
				return nil, fmt.Errorf("dfk: hinted executor %q not configured", h)
			}
			if len(hints) == 1 {
				candidates = l.one
			} else {
				candidates = append(candidates, l)
			}
		}
	case pl.lane != nil && pl.lane.breaker.Routable():
		candidates = pl.lane.one
	}
	if d.hp != nil {
		filtered, ok := filterRoutable(candidates)
		if !ok {
			if len(hints) > 0 && d.hp.pinnedFailFast {
				// Deliberately does not wrap ErrNoHealthyExecutor: this is a
				// permanent failure, not a parkable overload.
				return nil, fmt.Errorf("dfk: pinned executor %q circuit open (fail-fast)", hints[0])
			}
			return nil, health.ErrNoHealthyExecutor
		}
		candidates = filtered
	}
	var ex executor.Executor
	var err error
	if d.digestPicker != nil {
		ex, err = d.digestPicker.PickDigest(candidates, pl.digest)
	} else {
		ex, err = d.schedr.Pick(candidates)
	}
	if err != nil {
		return nil, fmt.Errorf("dfk: %w", err)
	}
	if l, ok := ex.(*lane); ok && l.d == d {
		return l, nil
	}
	// A user-supplied scheduler may hand back an executor rather than the
	// lane it was offered; one outside the configured set fails the task.
	if l, ok := d.lanes[ex.Label()]; ok {
		return l, nil
	}
	return nil, fmt.Errorf("dfk: scheduler %q picked unknown executor %q", d.schedr.Name(), ex.Label())
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
		batch, ok := l.take(d.batchMax)
		if !ok {
			return
		}
		// Chaos: a delayed drain models a stalled lane runner — queued tasks
		// keep aging against their attempt timers, which is the contract
		// armAttempt promises (the clock runs while they queue).
		chaos.Sleep(chaos.PointLaneDelay, l.label)
		msgs = msgs[:0]
		live = live[:0]
		futs = futs[:0]
		launchKeys = launchKeys[:0]
		for _, pl := range batch {
			// Every entry arrives carrying the executor-leg payload reference
			// (armAttempt); an entry dropped below gives it back.
			if pl.attempt.Done() {
				// The attempt timed out (or was canceled) while queued; its
				// retry (if any) is a separate lane entry. Best-effort skip —
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
			if err := chaos.Fail(chaos.PointSubmitFail, l.label); err != nil {
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
			d.emitState(pl.id, pl.app.name, pl.tenant, from, task.Launched, l.label)
			// First launch crossing the executor boundary: charge the durable
			// attempt budget (batched below, one log acquisition per drain).
			// Later attempts were already charged by their Retry records, and
			// a ghost resubmission of a dead attempt is skipped by the Done
			// check above.
			if pl.walKey != 0 && pl.walAttempt == 1 {
				launchKeys = append(launchKeys, pl.walKey)
			}
			m := serialize.TaskMsg{
				ID: pl.wireID, App: pl.app.name,
				Priority: pl.priority, Tenant: pl.tenant, Weight: pl.weight,
			}
			// The message carries the task's arguments only as its encode-once
			// payload — remote executors frame its bytes verbatim, in-process
			// ones copy their defensive copy from it. The entry's executor-leg
			// reference goes with it: SubmitInto takes it over; on the other arm
			// the relay holds it until the executor's future settles.
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
				// An executor that makes its own futures may be an adapter that
				// reads Args and Kwargs off the message, as Submit's callers
				// outside the DFK fill them: it gets a decoded copy beside the
				// payload. An undecodable payload leaves them empty, and the
				// executor's own read of the payload reports the error.
				for i := range msgs {
					msgs[i].Args, msgs[i].Kwargs, _ = msgs[i].Payload().DecodeArgs()
				}
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

// armAttempt routes one attempt on the calling goroutine and arms it: the
// lane (pl.lane; the record's Arm stores its label), the outcome future, the
// timeout timer and the retry-or-finish hook. It returns the lane to push the
// attempt onto, or nil: ok false when the task had already concluded (nothing armed, the
// attempt's payload reference dropped), true when the attempt settled here
// (deadline passed, no executor). The caller holds pl.rec. The timer starts
// here, so a task stuck behind a backlogged lane times out on schedule;
// WithTimeout/WithDeadline override Config.TaskTimeout, a deadline bounding
// each attempt by the time remaining.
func (d *DFK) armAttempt(pl *pendingLaunch) (l *lane, ok bool) {
	dur := d.cfg.TaskTimeout
	if t := pl.rec.Timeout; t > 0 {
		dur = t
	}
	var err error
	if dl := pl.rec.Deadline; !dl.IsZero() {
		if rem := time.Until(dl); rem <= 0 {
			// First attempts and retries alike fail here, synchronously,
			// rather than racing a zero timer against dispatch (a fast
			// executor could otherwise complete work past its deadline).
			err = fmt.Errorf("%w: deadline %v already passed", ErrTimeout, dl.Format(time.RFC3339Nano))
		} else if dur <= 0 || rem < dur {
			dur = rem
		}
	}
	if err == nil {
		if l, err = d.route(pl); l != nil {
			// Counted at once, so the next pick sees this one's load.
			l.queued.Add(1)
		}
	}
	pl.lane = l
	if !pl.rec.Arm(pl.payload, pl.walKey, &pl.attempt, l.name()) {
		if l != nil {
			l.queued.Add(-1)
		}
		pl.payload.Release()
		return nil, false
	}
	if err != nil {
		// Every admissible breaker open: park, don't fail — the attempt
		// concludes with the overload error, and attemptDone classifies it
		// and routes it again after backoff, never on this stack (see
		// attemptFailed). Anything else fails the task first, then completes
		// the attempt, whose done hook sees a concluded task.
		if !errors.Is(err, health.ErrNoHealthyExecutor) {
			d.failTask(pl.rec, err)
		}
		pl.attempt.SetDoneHook(pl)
		_ = pl.attempt.SetError(err)
		return nil, true
	}
	if l.breaker != nil {
		l.breaker.Acquire()
	}
	if dur > 0 {
		pl.timer = time.AfterFunc(dur, func() {
			_ = pl.attempt.SetError(fmt.Errorf("%w after %v", ErrTimeout, dur))
		})
	}
	// The executor-leg payload reference is taken before the done hook exists:
	// from then on a cancellation or the timer can settle the attempt — and
	// drop the attempt's own reference — at any moment, and the pooled payload
	// must not be recycled under an entry still on its way to the lane.
	pl.payload.Retain()
	pl.attempt.SetDoneHook(pl)
	return l, true
}

// enqueueAttempt routes, arms and pushes a retry's attempt (armAttempt). The
// caller holds pl.rec.
func (d *DFK) enqueueAttempt(pl *pendingLaunch) {
	if l, _ := d.armAttempt(pl); l != nil {
		l.push(pl)
	}
}

// attemptDone handles the outcome of one attempt of a task that has not
// concluded: completion, or retry through the scheduler while budget remains
// (§4.1: "Parsl is able to retry the task by resubmitting it to an
// executor"). A retry is routed again as a fresh attempt, so the scheduler
// re-picks an executor from current load — a task lost with a dying executor
// naturally drains toward a healthier one. memoKey comes from the Outcome
// stage, whose hold keeps the record valid throughout even if this call
// retires it; the executor is pl.lane. It reports whether the attempt's result
// concluded the task.
func (d *DFK) attemptDone(pl *pendingLaunch, af *future.Future, memoKey string) bool {
	v, err := af.Result()
	if err == nil {
		// A result always has a lane: a routing failure is an error.
		if b := pl.lane.breaker; b != nil {
			b.Record(true)
		}
		return d.completeTask(pl.rec, memoKey, v)
	}
	// The attempt is abandoned; tell its executor to drop whatever it still
	// holds under this wire id. For errors the executor itself reported this
	// is a no-op (its bookkeeping is already clean), but a timeout leaves
	// the attempt live executor-side — and if its frame was lost on the wire
	// (drop, corruption) the executor would otherwise carry the ghost
	// entry, and its inflated Outstanding() load signal, forever.
	pl.lane.drop(pl.wireID)
	if d.hp != nil {
		// The health plane owns failure handling end to end: classification,
		// breaker/quarantine bookkeeping, budget charging, and backoff-paced
		// re-dispatch.
		d.hp.attemptFailed(pl, err)
		return false
	}
	if next := d.nextAttempt(pl, true, err); next != nil {
		d.enqueueAttempt(next)
	}
	return false
}

// nextAttempt charges the failed attempt pl against the retry budget (unless
// the health plane forgives it) and builds the attempt that follows, or fails
// the task with err and returns nil when no budget — or no legal transition —
// remains. The new attempt is another object (the old one may still sit in a
// lane and must stay recognizable as dead) with a fresh wire id (the
// timed-out attempt may still be running remotely under the old one; ids are
// drawn from the task id sequence, so they never collide with any task's
// first-attempt id). It reuses the encode-once payload — resubmission costs
// zero re-serialization no matter how many attempts it takes — taking its own
// reference before the old attempt's drops.
func (d *DFK) nextAttempt(pl *pendingLaunch, charge bool, err error) *pendingLaunch {
	from, ok := pl.rec.Retry(charge)
	if !ok {
		d.failTask(pl.rec, err)
		return nil
	}
	d.emitState(pl.id, pl.app.name, pl.tenant, from, task.Retrying, pl.lane.name())
	next := attemptPool.Get().(*pendingLaunch)
	*next = pendingLaunch{
		id: pl.id, rec: pl.rec, gen: pl.gen, app: pl.app,
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
