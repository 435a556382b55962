// Package strategy implements Parsl's elasticity layer (§3.6, §4.4): an
// extensible strategy interface that watches outstanding tasks and available
// capacity and converts workload pressure into block-level scaling actions
// on a Scalable executor. The default Simple strategy exposes the
// `parallelism` knob the paper describes — how aggressively resources grow
// and shrink in response to waiting tasks.
package strategy

import (
	"math"
	"sync"
	"time"

	"repro/internal/executor"
	"repro/internal/sched"
)

// Snapshot is the workload/capacity state a strategy decides from.
type Snapshot struct {
	// Outstanding is the number of submitted-but-incomplete tasks.
	Outstanding int
	// ConnectedWorkers is live worker count.
	ConnectedWorkers int
	// ActiveBlocks is currently provisioned blocks.
	ActiveBlocks int
	// WorkersPerBlock is the capacity of one block.
	WorkersPerBlock int
	// MinBlocks/MaxBlocks bound the decision.
	MinBlocks, MaxBlocks int
}

// LoadPerWorker is outstanding work normalized by live capacity — the same
// signal the DFK's capacity-aware scheduler ranks executors by, so strategy
// decisions and task routing agree on what "loaded" means.
func (s Snapshot) LoadPerWorker() float64 {
	return sched.Load{Outstanding: s.Outstanding, Workers: s.ConnectedWorkers}.PerWorker()
}

// Strategy converts a snapshot into a scaling delta: positive = blocks to
// add, negative = blocks to release, zero = hold.
type Strategy interface {
	Decide(s Snapshot) int
}

// Simple is the default strategy: target enough blocks to run
// Outstanding×Parallelism tasks at once, within [MinBlocks, MaxBlocks].
// Parallelism 1.0 chases maximum concurrency; 0 disables scale-out.
type Simple struct {
	// Parallelism ∈ [0,1] scales how much of the outstanding work we try
	// to run concurrently.
	Parallelism float64
}

// Decide implements Strategy.
func (s Simple) Decide(snap Snapshot) int {
	if snap.WorkersPerBlock <= 0 {
		return 0
	}
	p := s.Parallelism
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	desiredWorkers := int(math.Ceil(float64(snap.Outstanding) * p))
	desiredBlocks := (desiredWorkers + snap.WorkersPerBlock - 1) / snap.WorkersPerBlock
	if desiredBlocks < snap.MinBlocks {
		desiredBlocks = snap.MinBlocks
	}
	if snap.MaxBlocks > 0 && desiredBlocks > snap.MaxBlocks {
		desiredBlocks = snap.MaxBlocks
	}
	return desiredBlocks - snap.ActiveBlocks
}

// Event records one controller decision, for tests and the utilization plot.
type Event struct {
	At       time.Time
	Snapshot Snapshot
	Delta    int
	Err      error
}

// ControllerConfig tunes the polling controller.
type ControllerConfig struct {
	// Interval is the poll period (default 100 ms; the paper's strategy
	// polls every few seconds — tests scale time down).
	Interval time.Duration
	// WorkersPerBlock describes block capacity for snapshots.
	WorkersPerBlock int
	// MinBlocks/MaxBlocks bound scaling.
	MinBlocks, MaxBlocks int
	// ScaleInHoldoff suppresses scale-in until the executor has been idle
	// this long, avoiding thrash between workflow stages.
	ScaleInHoldoff time.Duration
}

// Controller polls a Scalable executor and applies a Strategy — Parsl's
// "strategy module [that] tracks outstanding tasks and available capacity
// ... and communicates with the connected providers".
type Controller struct {
	ex  executor.Scalable
	st  Strategy
	cfg ControllerConfig

	mu        sync.Mutex
	events    []Event
	idleSince time.Time

	done chan struct{}
	once sync.Once
	wg   sync.WaitGroup
}

// NewController creates a controller; call Start to begin polling.
func NewController(ex executor.Scalable, st Strategy, cfg ControllerConfig) *Controller {
	if cfg.Interval <= 0 {
		cfg.Interval = 100 * time.Millisecond
	}
	if cfg.WorkersPerBlock <= 0 {
		cfg.WorkersPerBlock = 1
	}
	return &Controller{ex: ex, st: st, cfg: cfg, done: make(chan struct{})}
}

// Start launches the polling loop.
func (c *Controller) Start() {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		ticker := time.NewTicker(c.cfg.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-c.done:
				return
			case <-ticker.C:
				c.Step()
			}
		}
	}()
}

// Step performs one poll/decide/apply cycle (exported so tests and the DES
// can drive it without wall-clock waits).
func (c *Controller) Step() {
	// Sample workload pressure through the scheduler's load probe so the
	// controller sees exactly the signals task routing uses.
	load := sched.LoadOf(c.ex)
	snap := Snapshot{
		Outstanding:      load.Outstanding,
		ConnectedWorkers: load.Workers,
		ActiveBlocks:     c.ex.ActiveBlocks(),
		WorkersPerBlock:  c.cfg.WorkersPerBlock,
		MinBlocks:        c.cfg.MinBlocks,
		MaxBlocks:        c.cfg.MaxBlocks,
	}
	delta := c.st.Decide(snap)

	if delta < 0 && c.cfg.ScaleInHoldoff > 0 {
		c.mu.Lock()
		// Loaded at-or-above capacity, or blocks provisioned whose workers
		// have not registered yet (booting): either way, not idle — don't
		// start the scale-in clock under a block that is still coming up.
		if snap.LoadPerWorker() >= 1 ||
			(snap.ConnectedWorkers == 0 && snap.ActiveBlocks > 0) {
			// Still busy; reset the idle clock.
			c.idleSince = time.Time{}
			c.mu.Unlock()
			return
		}
		if c.idleSince.IsZero() {
			c.idleSince = time.Now()
			c.mu.Unlock()
			return
		}
		if time.Since(c.idleSince) < c.cfg.ScaleInHoldoff {
			c.mu.Unlock()
			return
		}
		c.idleSince = time.Time{}
		c.mu.Unlock()
	}

	var err error
	switch {
	case delta > 0:
		err = c.ex.ScaleOut(delta)
	case delta < 0:
		err = c.ex.ScaleIn(-delta)
	default:
		return
	}
	c.mu.Lock()
	c.events = append(c.events, Event{At: time.Now(), Snapshot: snap, Delta: delta, Err: err})
	c.mu.Unlock()
}

// Events returns a copy of the decision log.
func (c *Controller) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Event, len(c.events))
	copy(out, c.events)
	return out
}

// Stop halts polling.
func (c *Controller) Stop() {
	c.once.Do(func() { close(c.done) })
	c.wg.Wait()
}
