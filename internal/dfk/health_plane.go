package dfk

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/executor"
	"repro/internal/health"
	"repro/internal/monitor"
)

// healthPlane is the DFK-side assembly of the self-healing retry plane
// (internal/health): it classifies every failed attempt, paces retries with
// per-class deterministic backoff (one runtime timer per parked attempt),
// gives each executor's lane a circuit breaker, and quarantines poison tasks.
// The plane is nil unless Config.Health is set; every hot-path touchpoint is a
// single nil check, so the disabled DFK is byte-identical to the pre-health
// one.
type healthPlane struct {
	d        *DFK
	policies [health.NumClasses]health.Policy
	seed     int64
	// quarantineAfter is the distinct-manager kill count that quarantines a
	// task; 0 disables quarantine.
	quarantineAfter int
	pinnedFailFast  bool

	// backoffs counts scheduled backoffs for monitor rate-limiting.
	backoffs atomic.Int64
}

func newHealthPlane(d *DFK, opts *health.Options) *healthPlane {
	hp := &healthPlane{
		d:               d,
		policies:        opts.PolicyTable(),
		seed:            opts.Seed,
		quarantineAfter: opts.QuarantineAfter,
		pinnedFailFast:  opts.PinnedFailFast,
	}
	if hp.seed == 0 {
		hp.seed = d.cfg.Seed
	}
	switch {
	case hp.quarantineAfter == 0:
		hp.quarantineAfter = 3
	case hp.quarantineAfter < 0:
		hp.quarantineAfter = 0
	}
	for _, l := range d.lanes {
		l.breaker = health.NewBreaker(opts.Breaker)
		l.breaker.SetTransitionHook(func(from, to health.BreakerState) {
			hp.emitTransition(l.label, from, to)
		})
	}
	return hp
}

// filterRoutable narrows a candidate set of lanes to those whose breakers
// admit work. The all-healthy case — the steady state — returns the input
// slice untouched, so routing allocates nothing until a breaker actually
// opens. ok is false when no candidate is admissible.
func filterRoutable(candidates []executor.Executor) (out []executor.Executor, ok bool) {
	for i, c := range candidates {
		if c.(*lane).breaker.Routable() {
			if out != nil {
				out = append(out, c)
			}
			continue
		}
		if out == nil {
			// First rejection: copy the admissible prefix.
			out = make([]executor.Executor, i, len(candidates))
			copy(out, candidates[:i])
		}
	}
	if out == nil {
		return candidates, true
	}
	return out, len(out) > 0
}

// halfOpenWait is how long until the first breaker among a task's candidates
// (its hinted lanes, else every lane) may admit it: an open breaker once it
// may half-open, a half-open one with every probe slot reserved at its next
// re-check (Breaker.HalfOpensIn); 0 if none waits. A routing failure backs off
// at least this long, so its free overload retries are not spent before any
// breaker can admit it.
func (d *DFK) halfOpenWait(hints []string) (wait time.Duration) {
	for _, l := range d.lanes {
		w := l.breaker.HalfOpensIn()
		if w > 0 && (wait == 0 || w < wait) && (len(hints) == 0 || slices.Contains(hints, l.label)) {
			wait = w
		}
	}
	return wait
}

// attemptFailed is the health-plane replacement for attemptDone's inline
// retry path: classify the failure, update the executor's breaker, check the
// poison-kill history, charge (or forgive) the retry budget per the class
// policy, and schedule the next attempt after deterministic backoff. Runs
// inside the completion stage's hold on pl.rec; pl.lane is the executor the
// attempt was routed to (nil when routing placed it nowhere).
func (hp *healthPlane) attemptFailed(pl *pendingLaunch, err error) {
	d, l := hp.d, pl.lane
	cls := health.Classify(err)
	if errors.Is(err, ErrTimeout) {
		// The timeout sentinel lives in this package; pre-classify before
		// the taxonomy's chain walk (which cannot import it).
		cls = health.ClassTimeout
	}
	// Breaker bookkeeping: executor-fault classes count against the breaker;
	// a task fault is a delivered verdict — evidence of executor health, not
	// sickness. Overload never indicts anyone (no executor ran the attempt).
	if l != nil {
		if cls.ExecutorFault() {
			l.breaker.Record(false)
		} else if cls == health.ClassTaskFault {
			l.breaker.Record(true)
		}
	}
	// Poison bookkeeping: a lost manager joins the attempt chain's distinct-
	// kill history, and crossing the quarantine bar fails the task permanently
	// with the full history — before any retry-budget consideration, because
	// re-dispatching a decapitating task is never worth a budget check.
	if cls == health.ClassExecutorLost {
		key := ""
		var le *executor.LostError
		if errors.As(err, &le) {
			key = le.Manager
			if key == "" {
				key = le.Detail
			}
		}
		if key != "" && !slices.Contains(pl.kills, key) {
			pl.kills = append(pl.kills, key)
		}
		if hp.quarantineAfter > 0 && len(pl.kills) >= hp.quarantineAfter {
			qerr := &health.QuarantineError{TaskID: pl.id, Kills: pl.kills, Last: err}
			hp.emitQuarantine(pl, l.name(), qerr)
			d.failTask(pl.rec, qerr)
			return
		}
	}
	pol := hp.policies[cls]
	charge := pol.Charge
	if !charge {
		maxFree := pol.MaxFree
		if maxFree > 255 {
			maxFree = 255 // free counters are uint8; saturate, never wrap
		}
		if int(pl.free[cls]) < maxFree {
			pl.free[cls]++
		} else {
			charge = true // free allowance exhausted; back to the budget
		}
	}
	// Same state discipline as the inline path: a queued attempt is still
	// Pending and simply re-enters; a launched one moves to Retrying. The
	// kill history and free-retry counters ride along to the next attempt.
	next := d.nextAttempt(pl, charge, err)
	if next == nil {
		return
	}
	if !pol.Failover {
		// Retry affinity: a non-failover class prefers the executor it failed
		// on, as long as its breaker keeps admitting (route reads next.lane).
		next.lane = l
	}
	delay := pol.Delay(hp.seed, pl.id, next.walAttempt)
	if l == nil { // every candidate breaker rejected the attempt
		delay = max(delay, d.halfOpenWait(pl.rec.Hints))
	}
	hp.emitBackoff(pl, l.name(), cls, next.walAttempt, delay)
	if delay <= 0 && l != nil {
		// Zero-backoff classes (timeout) are routed again at once. An attempt
		// routing could not place (no lane) settled inside the routing call,
		// so routing it again here would nest one call deeper per retry: the
		// timer routes it from a fresh stack.
		d.enqueueAttempt(next)
		return
	}
	time.AfterFunc(delay, func() { hp.release(next) })
}

// release routes an attempt parked for its backoff, on the timer's goroutine.
// Its timeout clock starts here (armAttempt arms it): backoff time is never
// charged against the attempt. A parked task is not terminal and holds the
// task waitgroup, so Shutdown outlasts every timer whose task is still live.
// The record is revalidated first: it may have been recycled while the
// attempt was parked, or the task may have concluded (cancellation, a racing
// terminal path), which Arm refuses; then only the payload reference drops.
func (hp *healthPlane) release(pl *pendingLaunch) {
	rec := pl.rec
	if !rec.Enter(pl.gen) {
		pl.payload.Release()
		return
	}
	// Once pushed, the attempt may conclude its task and be recycled before
	// enqueueAttempt returns, so the hold is dropped through rec, not pl.
	hp.d.enqueueAttempt(pl)
	rec.Exit()
}

// emitTransition records a breaker state change. Transitions are rare by
// construction (bounded by OpenFor cycles), so they are never rate-limited.
func (hp *healthPlane) emitTransition(label string, from, to health.BreakerState) {
	hp.d.mon.Emit(monitor.Event{
		Kind:     monitor.KindHealth,
		At:       time.Now(),
		Executor: label,
		From:     from.String(),
		To:       to.String(),
		Detail:   "breaker",
	})
}

// emitBackoff records a scheduled backoff, rate-limited like graph events:
// the first 16 per run and every 256th after, so small runs observe the
// plane working and kill-storms don't pay a monitor event per retry.
func (hp *healthPlane) emitBackoff(pl *pendingLaunch, label string, cls health.Class, attempt int, delay time.Duration) {
	n := hp.backoffs.Add(1)
	if n > 16 && n%256 != 0 {
		return
	}
	hp.d.mon.Emit(monitor.Event{
		Kind:     monitor.KindHealth,
		At:       time.Now(),
		TaskID:   pl.id,
		App:      pl.app.name,
		Executor: label,
		Detail:   fmt.Sprintf("backoff class=%s attempt=%d", cls, attempt),
		Duration: delay,
	})
}

// emitQuarantine records a poison-task quarantine (never rate-limited; each
// is a permanent task failure).
func (hp *healthPlane) emitQuarantine(pl *pendingLaunch, label string, qerr *health.QuarantineError) {
	hp.d.mon.Emit(monitor.Event{
		Kind:     monitor.KindHealth,
		At:       time.Now(),
		TaskID:   pl.id,
		App:      pl.app.name,
		Executor: label,
		Detail:   "quarantine: " + qerr.Error(),
	})
}
