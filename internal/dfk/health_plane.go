package dfk

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/executor"
	"repro/internal/health"
	"repro/internal/monitor"
)

// healthPlane is the DFK-side assembly of the self-healing retry plane
// (internal/health): it classifies every failed attempt, paces retries with
// per-class deterministic backoff (one runtime timer per parked attempt),
// tracks one circuit breaker per executor, and quarantines poison tasks. The
// plane is nil unless Config.Health is set; every hot-path touchpoint is a
// single nil check, so the disabled DFK is byte-identical to the pre-health
// one.
type healthPlane struct {
	d        *DFK
	policies [health.NumClasses]health.Policy
	breakers map[string]*health.Breaker
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
		breakers:        make(map[string]*health.Breaker, len(d.execList)),
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
	for _, ex := range d.execList {
		b := health.NewBreaker(opts.Breaker)
		label := ex.Label()
		b.SetTransitionHook(func(from, to health.BreakerState) {
			hp.emitTransition(label, from, to)
		})
		hp.breakers[label] = b
		d.lanes[label].breaker = b
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

// recordSuccess feeds a completed attempt into its executor's breaker.
func (hp *healthPlane) recordSuccess(label string) {
	if b := hp.breakers[label]; b != nil {
		b.Record(true)
	}
}

// attemptFailed is the health-plane replacement for attemptDone's inline
// retry path: classify the failure, update the executor's breaker, check the
// poison-kill history, charge (or forgive) the retry budget per the class
// policy, and schedule the next attempt after deterministic backoff. Runs
// inside the completion stage's hold on pl.rec; label is the executor the
// attempt was routed to.
func (hp *healthPlane) attemptFailed(pl *pendingLaunch, label string, err error) {
	d := hp.d
	cls := health.Classify(err)
	if errors.Is(err, ErrTimeout) {
		// The timeout sentinel lives in this package; pre-classify before
		// the taxonomy's chain walk (which cannot import it).
		cls = health.ClassTimeout
	}
	// Breaker bookkeeping: executor-fault classes count against the breaker;
	// a task fault is a delivered verdict — evidence of executor health, not
	// sickness. Overload never indicts anyone (no executor ran the attempt).
	if label != "" {
		if b := hp.breakers[label]; b != nil {
			if cls.ExecutorFault() {
				b.Record(false)
			} else if cls == health.ClassTaskFault {
				b.Record(true)
			}
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
		if key != "" && !containsStr(pl.kills, key) {
			pl.kills = append(pl.kills, key)
		}
		if hp.quarantineAfter > 0 && len(pl.kills) >= hp.quarantineAfter {
			qerr := &health.QuarantineError{TaskID: pl.id, Kills: pl.kills, Last: err}
			hp.emitQuarantine(pl, label, qerr)
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
	next := d.nextAttempt(pl, label, charge, err)
	if next == nil {
		return
	}
	if !pol.Failover && label != "" {
		// Retry affinity: a non-failover class prefers the executor it failed
		// on, as long as its breaker keeps admitting (route honors stick).
		next.stick = d.lanes[label]
	}
	delay := pol.Delay(hp.seed, pl.id, next.walAttempt)
	hp.emitBackoff(pl, label, cls, next.walAttempt, delay)
	if delay <= 0 && label != "" {
		// Zero-backoff classes (timeout) are routed again at once. An attempt
		// routing could not place (label "") settled inside the routing call,
		// so routing it again here would nest one call deeper per retry: the
		// timer routes it from a fresh stack.
		d.enqueueAttempt(next)
		return
	}
	hp.schedule(next, delay)
}

func containsStr(s []string, v string) bool {
	for _, e := range s {
		if e == v {
			return true
		}
	}
	return false
}

// schedule parks an attempt until its backoff expires, then routes it on the
// timer's goroutine. The attempt's timeout clock starts at the re-launch
// (armAttempt arms it), not here — backoff time is never
// charged against the attempt. A parked task is not terminal and holds the
// task waitgroup, so Shutdown outlasts every timer whose task is still live;
// one whose task concluded meanwhile (cancellation) fires into release's
// revalidation and only drops its payload reference.
func (hp *healthPlane) schedule(pl *pendingLaunch, delay time.Duration) {
	time.AfterFunc(delay, func() { hp.release(pl) })
}

// release routes one parked attempt, revalidating the record first: the
// record may have been recycled while the attempt was parked, or the task may
// have concluded (cancellation, a racing terminal path), which Arm refuses.
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
