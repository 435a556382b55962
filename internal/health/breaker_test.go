package health

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is an injectable breaker clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func newTestBreaker(t *testing.T, cfg BreakerConfig) (*Breaker, *fakeClock, *[]string) {
	t.Helper()
	b := NewBreaker(cfg)
	clk := newFakeClock()
	b.now = clk.Now
	var transitions []string
	b.SetTransitionHook(func(from, to BreakerState) {
		transitions = append(transitions, from.String()+"->"+to.String())
	})
	return b, clk, &transitions
}

func TestBreakerOpensAtThreshold(t *testing.T) {
	b, _, trans := newTestBreaker(t, BreakerConfig{Window: 8, MinSamples: 4, FailureThreshold: 0.5, OpenFor: 100 * time.Millisecond})
	// Three failures: below MinSamples, must stay closed.
	for i := 0; i < 3; i++ {
		b.Record(false)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("opened below MinSamples: %v", b.State())
	}
	// Fourth failure reaches MinSamples at 100% failure rate: open.
	b.Record(false)
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v after 4 consecutive failures", b.State())
	}
	if !b.Routable() {
		// Routable must reject while the open window runs (fake clock frozen).
	} else {
		t.Fatal("open breaker admitted work")
	}
	if len(*trans) != 1 || (*trans)[0] != "closed->open" {
		t.Fatalf("transitions = %v", *trans)
	}
	// Late results from before the trip carry no information.
	b.Record(true)
	if b.State() != BreakerOpen {
		t.Fatal("stale success closed an open breaker")
	}
}

func TestBreakerStaysClosedUnderMixedOutcomes(t *testing.T) {
	b, _, _ := newTestBreaker(t, BreakerConfig{Window: 8, MinSamples: 4, FailureThreshold: 0.5})
	// Alternate success/failure: 50% threshold is reached exactly — the
	// breaker opens at >= threshold. Use a 0.75 threshold variant to verify
	// sub-threshold mixes stay closed.
	b2, _, _ := newTestBreaker(t, BreakerConfig{Window: 8, MinSamples: 4, FailureThreshold: 0.75})
	for i := 0; i < 16; i++ {
		b2.Record(i%2 == 0) // 50% failures < 75% threshold
	}
	if b2.State() != BreakerClosed {
		t.Fatalf("b2 state = %v under sub-threshold failure rate", b2.State())
	}
	for i := 0; i < 16; i++ {
		b.Record(true)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("b state = %v under pure success", b.State())
	}
}

// TestBreakerHalfOpensIn: only an open breaker, or a half-open one with every
// probe slot reserved, has a wait; an open breaker's is the rest of its
// OpenFor; closed, expired and half-open breakers with a free slot report
// none.
func TestBreakerHalfOpensIn(t *testing.T) {
	b, clk, _ := newTestBreaker(t, BreakerConfig{Window: 1, MinSamples: 1, OpenFor: 50 * time.Millisecond})
	if w := b.HalfOpensIn(); w != 0 {
		t.Fatalf("closed: HalfOpensIn = %v, want 0", w)
	}
	b.Record(false)
	if w := b.HalfOpensIn(); w != 50*time.Millisecond {
		t.Fatalf("just opened: HalfOpensIn = %v, want 50ms", w)
	}
	clk.Advance(20 * time.Millisecond)
	if w := b.HalfOpensIn(); w != 30*time.Millisecond {
		t.Fatalf("20ms into OpenFor: HalfOpensIn = %v, want 30ms", w)
	}
	clk.Advance(40 * time.Millisecond)
	if w := b.HalfOpensIn(); w != 0 || b.State() != BreakerOpen {
		t.Fatalf("OpenFor run out: HalfOpensIn = %v in %v, want 0 while still open", w, b.State())
	}
	if !b.Routable() || b.State() != BreakerHalfOpen {
		t.Fatalf("Routable did not half-open the expired breaker: %v", b.State())
	}
	if w := b.HalfOpensIn(); w != 0 {
		t.Fatalf("half-open: HalfOpensIn = %v, want 0", w)
	}
	// Every probe slot reserved: nothing is admitted until a probe settles,
	// which cannot be known, so the wait is a re-check one OpenFor away.
	for range 2 {
		b.Acquire()
	}
	if w := b.HalfOpensIn(); w != 50*time.Millisecond || b.Routable() {
		t.Fatalf("half-open, probes reserved: HalfOpensIn = %v, want 50ms while not routable", w)
	}
}

func TestBreakerHalfOpenProbeLifecycle(t *testing.T) {
	cfg := BreakerConfig{Window: 4, MinSamples: 2, FailureThreshold: 0.5, OpenFor: 50 * time.Millisecond, HalfOpenProbes: 2}
	b, clk, trans := newTestBreaker(t, cfg)
	b.Record(false)
	b.Record(false)
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v", b.State())
	}
	// Open window not yet expired: not routable.
	clk.Advance(20 * time.Millisecond)
	if b.Routable() {
		t.Fatal("admitted before OpenFor expired")
	}
	// Expiry: Routable flips the breaker half-open and admits probes.
	clk.Advance(40 * time.Millisecond)
	if !b.Routable() {
		t.Fatal("rejected after OpenFor expired")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %v after expiry", b.State())
	}
	// Probe slots bound concurrent admissions.
	b.Acquire()
	if !b.Routable() {
		t.Fatal("second probe slot not admitted")
	}
	b.Acquire()
	if b.Routable() {
		t.Fatal("admitted past HalfOpenProbes")
	}
	// A probe failure reopens; the next expiry re-probes; a success closes.
	b.Record(false)
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v after probe failure", b.State())
	}
	clk.Advance(60 * time.Millisecond)
	if !b.Routable() {
		t.Fatal("not routable after second expiry")
	}
	b.Acquire()
	b.Record(true)
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v after probe success", b.State())
	}
	// Closing resets the window: one new failure must not instantly reopen.
	b.Record(false)
	if b.State() != BreakerClosed {
		t.Fatal("reopened on first post-close failure (window not reset)")
	}
	want := []string{"closed->open", "open->half-open", "half-open->open", "open->half-open", "half-open->closed"}
	if len(*trans) != len(want) {
		t.Fatalf("transitions = %v, want %v", *trans, want)
	}
	for i, w := range want {
		if (*trans)[i] != w {
			t.Fatalf("transition[%d] = %q, want %q", i, (*trans)[i], w)
		}
	}
}

// TestBreakerPropertyRandomWalk drives a breaker through a long pseudo-random
// outcome sequence and checks the state-machine invariants at every step:
// closed never holds more than Window outcomes, open always follows a
// threshold crossing or probe failure, half-open only follows an expired open
// window, and probes never exceed the configured bound.
func TestBreakerPropertyRandomWalk(t *testing.T) {
	cfg := BreakerConfig{Window: 6, MinSamples: 3, FailureThreshold: 0.5, OpenFor: 10 * time.Millisecond, HalfOpenProbes: 1}
	b, clk, _ := newTestBreaker(t, cfg)
	rng := uint64(42)
	next := func() uint64 {
		rng = splitmix64(rng)
		return rng
	}
	for step := 0; step < 5000; step++ {
		switch next() % 4 {
		case 0:
			clk.Advance(time.Duration(next()%20) * time.Millisecond)
		case 1:
			if b.Routable() {
				b.Acquire()
			}
		default:
			before := b.State()
			ok := next()%3 == 0
			b.Record(ok)
			after := b.State()
			// Legal transitions only.
			switch {
			case before == after:
			case before == BreakerClosed && after == BreakerOpen:
			case before == BreakerHalfOpen && after == BreakerOpen && !ok:
			case before == BreakerHalfOpen && after == BreakerClosed && ok:
			default:
				t.Fatalf("step %d: illegal transition %v -> %v (ok=%v)", step, before, after, ok)
			}
		}
		if s := b.State(); s != BreakerClosed && s != BreakerOpen && s != BreakerHalfOpen {
			t.Fatalf("step %d: impossible state %v", step, s)
		}
	}
}

func TestBreakerNormalizeDefaults(t *testing.T) {
	b := NewBreaker(BreakerConfig{})
	if b.cfg.Window != 16 || b.cfg.MinSamples != 8 || b.cfg.FailureThreshold != 0.5 ||
		b.cfg.OpenFor != 250*time.Millisecond || b.cfg.HalfOpenProbes != 2 {
		t.Fatalf("defaults = %+v", b.cfg)
	}
	b2 := NewBreaker(BreakerConfig{Window: 4, MinSamples: 100})
	if b2.cfg.MinSamples != 4 {
		t.Fatalf("MinSamples not clamped to Window: %d", b2.cfg.MinSamples)
	}
}

// TestBreakerConcurrentCycles drives a breaker through open → half-open →
// closed cycles while Record(false), Routable and Acquire run on other
// goroutines; run it under -race. The clock moves only when the test moves
// it, so a breaker that State() has read open, and that opened less than
// OpenFor before the clock's reading, cannot half-open until the clock moves
// again: until then Routable must refuse it, its closed-state fast path
// included. Reserved probes never exceed HalfOpenProbes.
func TestBreakerConcurrentCycles(t *testing.T) {
	const openFor, maxProbes, cycles = time.Second, 2, 50
	b := NewBreaker(BreakerConfig{Window: 4, MinSamples: 2, FailureThreshold: 0.5, OpenFor: openFor, HalfOpenProbes: maxProbes})
	clk := newFakeClock()
	b.now = clk.Now
	var closes atomic.Int64
	b.SetTransitionHook(func(_, to BreakerState) {
		if to == BreakerClosed {
			closes.Add(1)
		}
	})
	openedAt := func() time.Time {
		b.mu.Lock()
		defer b.mu.Unlock()
		return b.openedAt
	}
	var stop atomic.Bool
	var admittedOpen, overReserved atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			b.Record(false)
			runtime.Gosched()
		}
	}()
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				c0 := clk.Now()
				open := b.State() == BreakerOpen
				opened := openedAt()
				ok := b.Routable()
				if open && ok && clk.Now().Equal(c0) && c0.Sub(opened) < openFor {
					admittedOpen.Add(1)
				}
				if ok {
					b.Acquire()
				}
				b.mu.Lock()
				if b.probes > maxProbes {
					overReserved.Add(1)
				}
				b.mu.Unlock()
			}
		}()
	}
	deadline := time.Now().Add(20 * time.Second)
	for closes.Load() < cycles && time.Now().Before(deadline) {
		switch b.State() {
		case BreakerOpen:
			if clk.Now().Sub(openedAt()) < openFor {
				clk.Advance(openFor)
			}
		case BreakerHalfOpen:
			b.Record(true)
		}
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()
	if n := closes.Load(); n < cycles {
		t.Fatalf("%d closed transitions in 20 s, want %d cycles", n, cycles)
	}
	if n := admittedOpen.Load(); n > 0 {
		t.Fatalf("Routable admitted %d times after State() read open, before the breaker could half-open", n)
	}
	if n := overReserved.Load(); n > 0 {
		t.Fatalf("probes exceeded HalfOpenProbes %d times", n)
	}
}
