package health

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// BreakerState is one circuit breaker's position.
type BreakerState uint8

// Breaker states: closed admits everything, open admits nothing, half-open
// admits a bounded number of probe tasks whose outcomes decide the verdict.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

var breakerStateNames = [...]string{"closed", "open", "half-open"}

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	if int(s) < len(breakerStateNames) {
		return breakerStateNames[s]
	}
	return fmt.Sprintf("BreakerState(%d)", uint8(s))
}

// BreakerConfig tunes one per-executor circuit breaker.
type BreakerConfig struct {
	// Window is the rolling outcome window (default 16).
	Window int
	// FailureThreshold opens the breaker when the window's failure fraction
	// reaches it (default 0.5).
	FailureThreshold float64
	// MinSamples is how many outcomes the window needs before the breaker
	// may open (default 8) — a single early failure is not a verdict.
	MinSamples int
	// OpenFor is how long the breaker stays open before admitting probes
	// (default 250ms).
	OpenFor time.Duration
	// HalfOpenProbes bounds concurrently admitted probe tasks while
	// half-open (default 2).
	HalfOpenProbes int
}

func (c *BreakerConfig) normalize() {
	if c.Window <= 0 {
		c.Window = 16
	}
	if c.FailureThreshold <= 0 || c.FailureThreshold > 1 {
		c.FailureThreshold = 0.5
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 8
	}
	if c.MinSamples > c.Window {
		c.MinSamples = c.Window
	}
	if c.OpenFor <= 0 {
		c.OpenFor = 250 * time.Millisecond
	}
	if c.HalfOpenProbes <= 0 {
		c.HalfOpenProbes = 2
	}
}

// Breaker is a rolling-failure-rate circuit breaker for one executor.
// Routing consults Routable (non-mutating except for open→half-open expiry),
// reserves a probe slot with Acquire on the executor it actually picked, and
// reports each attempt outcome with Record. All methods are safe for
// concurrent use. Routing runs on whichever goroutine makes a task ready, so
// the closed state — the steady one — costs it one atomic load: Routable
// admits and Acquire returns without taking the lock.
type Breaker struct {
	cfg BreakerConfig
	// now is the clock, injectable so state-machine tests need no sleeping.
	now func() time.Time
	// onTransition observes state changes (monitor events); called outside
	// the breaker lock, so late reorderings between two racing transitions
	// are possible and harmless — the State accessor is authoritative.
	onTransition func(from, to BreakerState)

	// state is the breaker's position, written under mu at every transition
	// and read without it.
	state atomic.Uint32

	mu       sync.Mutex
	ring     []bool // true = failure; rolling window of recent outcomes
	ringLen  int    // outcomes currently held (≤ cap)
	ringPos  int    // next write position
	fails    int    // failures currently in the window
	openedAt time.Time
	probes   int // probe slots currently reserved while half-open
	// pending holds a transition awaiting out-of-lock hook delivery; each
	// public method performs at most one transition per call.
	pending pendingTransition
}

// NewBreaker builds a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	cfg.normalize()
	return &Breaker{cfg: cfg, now: time.Now, ring: make([]bool, cfg.Window)}
}

// SetTransitionHook installs the state-change observer (before first use).
func (b *Breaker) SetTransitionHook(fn func(from, to BreakerState)) { b.onTransition = fn }

// State reports the current position without evaluating open-window expiry.
func (b *Breaker) State() BreakerState { return BreakerState(b.state.Load()) }

// setLocked moves the breaker to s, recording the transition for the hook.
// The caller holds mu.
func (b *Breaker) setLocked(s BreakerState) {
	b.pending = pendingTransition{fired: true, from: b.State(), to: s}
	b.state.Store(uint32(s))
}

// HalfOpensIn reports how long a task that found this breaker inadmissible
// should wait before asking again: until an open breaker's OpenFor runs out,
// or one whole OpenFor for a half-open breaker whose probe slots are all
// reserved, since when its probes settle cannot be known. It is 0 when the
// breaker admits (closed, or half-open with a free slot) or its OpenFor has
// already run out (the next Routable half-opens it). Closed, it answers
// without the lock.
func (b *Breaker) HalfOpensIn() time.Duration {
	if b.State() == BreakerClosed {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.State() {
	case BreakerOpen:
		return max(b.cfg.OpenFor-b.now().Sub(b.openedAt), 0)
	case BreakerHalfOpen:
		if b.probes >= b.cfg.HalfOpenProbes {
			return b.cfg.OpenFor
		}
	}
	return 0
}

// Routable reports whether routing may consider this executor right now.
// Closed admits without the lock. An expired open window transitions to
// half-open here — routing is the natural evaluation point — and half-open
// admits only while probe slots remain unreserved.
func (b *Breaker) Routable() bool {
	if b.State() == BreakerClosed {
		return true
	}
	b.mu.Lock()
	if b.State() == BreakerOpen && b.now().Sub(b.openedAt) >= b.cfg.OpenFor {
		b.toHalfOpenLocked()
	}
	var ok bool
	switch b.State() {
	case BreakerClosed:
		ok = true
	case BreakerHalfOpen:
		ok = b.probes < b.cfg.HalfOpenProbes
	}
	hook, from, to := b.takeTransitionLocked()
	b.mu.Unlock()
	if hook != nil {
		hook(from, to)
	}
	return ok
}

// Acquire reserves a probe slot after routing picked this executor. A no-op
// outside half-open, decided without the lock; the slot is released by the
// probe's Record.
func (b *Breaker) Acquire() {
	if b.State() != BreakerHalfOpen {
		return
	}
	b.mu.Lock()
	if b.State() == BreakerHalfOpen && b.probes < b.cfg.HalfOpenProbes {
		b.probes++
	}
	b.mu.Unlock()
}

// Record reports one attempt outcome against this executor. Closed: the
// outcome enters the rolling window, and the breaker opens when the window
// holds MinSamples outcomes at FailureThreshold failure rate. Half-open: a
// probe success closes the breaker (fresh window), a probe failure reopens
// it for another OpenFor. Open: late results from before the trip carry no
// new information and are dropped.
func (b *Breaker) Record(ok bool) {
	b.mu.Lock()
	switch b.State() {
	case BreakerClosed:
		b.pushLocked(!ok)
		if b.ringLen >= b.cfg.MinSamples &&
			float64(b.fails) >= b.cfg.FailureThreshold*float64(b.ringLen) {
			b.openLocked()
		}
	case BreakerHalfOpen:
		if b.probes > 0 {
			b.probes--
		}
		if ok {
			b.closeLocked()
		} else {
			b.openLocked()
		}
	case BreakerOpen:
		// Stale outcome from before the trip; ignore.
	}
	hook, from, to := b.takeTransitionLocked()
	b.mu.Unlock()
	if hook != nil {
		hook(from, to)
	}
}

// pushLocked rolls one outcome into the window.
func (b *Breaker) pushLocked(failed bool) {
	if b.ringLen == len(b.ring) {
		if b.ring[b.ringPos] {
			b.fails--
		}
	} else {
		b.ringLen++
	}
	b.ring[b.ringPos] = failed
	if failed {
		b.fails++
	}
	b.ringPos = (b.ringPos + 1) % len(b.ring)
}

// Pending transition captured for out-of-lock hook delivery.
type pendingTransition struct {
	fired    bool
	from, to BreakerState
}

func (b *Breaker) takeTransitionLocked() (func(from, to BreakerState), BreakerState, BreakerState) {
	if !b.pending.fired || b.onTransition == nil {
		b.pending = pendingTransition{}
		return nil, 0, 0
	}
	t := b.pending
	b.pending = pendingTransition{}
	return b.onTransition, t.from, t.to
}

func (b *Breaker) openLocked() {
	b.openedAt = b.now()
	b.probes = 0
	b.setLocked(BreakerOpen)
}

func (b *Breaker) toHalfOpenLocked() {
	b.probes = 0
	b.setLocked(BreakerHalfOpen)
}

func (b *Breaker) closeLocked() {
	b.setLocked(BreakerClosed)
	for i := range b.ring {
		b.ring[i] = false
	}
	b.ringLen, b.ringPos, b.fails = 0, 0, 0
}
