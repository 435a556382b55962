// Package baselines implements runnable models of the two frameworks Fig. 3
// compares against (§5): IPyParallel and Dask distributed. Each implements
// the executor.Executor interface so the latency experiment drives them
// exactly like Parsl's own executors. (The third framework of §5 has no
// Fig. 3 row; it is one parameter row of the Fig. 4 / Table 2 model in
// cmd/parsl-bench.)
//
// The models are architectural, not cosmetic: each encodes the documented
// bottleneck that produced the paper's numbers —
//
//   - IPyParallel: a centralized hub with a ~3 ms serialized per-task cost
//     (≈330 tasks/s ceiling) and degradation past ~2048 workers.
//   - Dask distributed: a fast centralized scheduler (~0.38 ms per decision,
//     ≈2617 tasks/s) but one connection per worker into one process, so a
//     hard connection cap near 8192 workers.
//
// Default constants come from Table 2 and Fig. 3; tests assert the shape
// (ordering, saturation), not the absolute values.
package baselines

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/executor"
	"repro/internal/future"
	"repro/internal/serialize"
)

// Calibration constants, from the paper's measurements.
const (
	// IPPSchedulerService yields IPP's ~330 tasks/s hub ceiling.
	IPPSchedulerService = 3 * time.Millisecond
	// IPPRoundTrip reproduces the ~11.7 ms single-task latency (Fig. 3).
	IPPRoundTrip = 8 * time.Millisecond
	// IPPMaxWorkers is where IPP stopped scaling on Blue Waters (Table 2).
	IPPMaxWorkers = 2048

	// DaskSchedulerService yields Dask's ~2617 tasks/s (Table 2).
	DaskSchedulerService = 380 * time.Microsecond
	// DaskRoundTrip reproduces the ~16.2 ms single-task latency (Fig. 3).
	DaskRoundTrip = 15 * time.Millisecond
	// DaskMaxWorkers is the centralized scheduler's connection cap.
	DaskMaxWorkers = 8192
)

// ErrWorkerLimit is returned when a framework cannot accept more workers.
var ErrWorkerLimit = errors.New("baselines: worker limit exceeded")

// CentralConfig parameterizes a centralized-scheduler framework model.
type CentralConfig struct {
	Name string
	// RoundTrip is fixed client-visible latency per task (submission
	// marshalling + polling), paid in parallel.
	RoundTrip time.Duration
	// SchedulerService is the serialized per-task scheduler cost — the
	// saturation bottleneck.
	SchedulerService time.Duration
	// MaxWorkers caps registered workers.
	MaxWorkers int
	// Workers is how many workers Start connects.
	Workers  int
	Registry *serialize.Registry
}

// Central models IPyParallel's hub and Dask distributed's scheduler: all
// tasks funnel through one service loop before reaching workers.
type Central struct {
	cfg CentralConfig

	queue   chan centralItem
	idle    chan struct{} // tokens: one per idle worker
	done    chan struct{}
	once    sync.Once
	wg      sync.WaitGroup
	workers atomic.Int64

	outstanding atomic.Int64
	started     atomic.Bool
}

type centralItem struct {
	msg serialize.TaskMsg
	fut *future.Future
}

// NewIPP builds an IPyParallel model with n workers.
func NewIPP(n int, reg *serialize.Registry) *Central {
	return NewCentral(CentralConfig{
		Name: "ipp", RoundTrip: IPPRoundTrip, SchedulerService: IPPSchedulerService,
		MaxWorkers: IPPMaxWorkers, Workers: n, Registry: reg,
	})
}

// NewDask builds a Dask distributed model with n workers.
func NewDask(n int, reg *serialize.Registry) *Central {
	return NewCentral(CentralConfig{
		Name: "dask", RoundTrip: DaskRoundTrip, SchedulerService: DaskSchedulerService,
		MaxWorkers: DaskMaxWorkers, Workers: n, Registry: reg,
	})
}

// NewCentral builds a custom centralized framework model.
func NewCentral(cfg CentralConfig) *Central {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	return &Central{
		cfg:   cfg,
		queue: make(chan centralItem, 65536),
		idle:  make(chan struct{}, cfg.Workers),
		done:  make(chan struct{}),
	}
}

// Label implements executor.Executor.
func (c *Central) Label() string { return c.cfg.Name }

// Start implements executor.Executor: connect workers (respecting the
// framework's connection cap) and run the scheduler loop.
func (c *Central) Start() error {
	if c.started.Swap(true) {
		return nil
	}
	if err := c.AddWorkers(c.cfg.Workers); err != nil {
		return err
	}
	c.wg.Add(1)
	go c.schedulerLoop()
	return nil
}

// AddWorkers connects n more workers, failing at the connection cap — the
// Table 2 "maximum number of workers" probe.
func (c *Central) AddWorkers(n int) error {
	for i := 0; i < n; i++ {
		if c.cfg.MaxWorkers > 0 && c.workers.Load() >= int64(c.cfg.MaxWorkers) {
			return fmt.Errorf("%w: %s at %d", ErrWorkerLimit, c.cfg.Name, c.workers.Load())
		}
		c.workers.Add(1)
		select {
		case c.idle <- struct{}{}:
		default:
			// idle channel sized for initial workers; grow via queue slack.
		}
	}
	return nil
}

// Workers reports connected workers.
func (c *Central) Workers() int { return int(c.workers.Load()) }

// schedulerLoop serializes the per-task scheduling decision.
func (c *Central) schedulerLoop() {
	defer c.wg.Done()
	for {
		select {
		case <-c.done:
			return
		case it := <-c.queue:
			// The centralized decision: everything pays this serially.
			if c.cfg.SchedulerService > 0 {
				time.Sleep(c.cfg.SchedulerService)
			}
			select {
			case <-c.idle: // a worker is free
			case <-c.done:
				return
			}
			go func(it centralItem) {
				res := executor.RunKernel(c.cfg.Registry, it.msg, c.cfg.Name+"-worker")
				c.idle <- struct{}{}
				// Return-path latency is paid in parallel.
				half := c.cfg.RoundTrip / 2
				if half > 0 {
					time.AfterFunc(half, func() {
						c.outstanding.Add(-1)
						executor.Complete(it.fut, res)
					})
					return
				}
				c.outstanding.Add(-1)
				executor.Complete(it.fut, res)
			}(it)
		}
	}
}

// Submit implements executor.Executor.
func (c *Central) Submit(msg serialize.TaskMsg) *future.Future {
	fut := future.NewForTask(msg.ID)
	if !c.started.Load() {
		_ = fut.SetError(fmt.Errorf("%s: Submit before Start", c.cfg.Name))
		return fut
	}
	select {
	case <-c.done:
		_ = fut.SetError(executor.ErrShutdown)
		return fut
	default:
	}
	c.outstanding.Add(1)
	half := c.cfg.RoundTrip / 2
	enqueue := func() {
		select {
		case c.queue <- centralItem{msg: msg, fut: fut}:
		case <-c.done:
			c.outstanding.Add(-1)
			_ = fut.SetError(executor.ErrShutdown)
		}
	}
	if half > 0 {
		time.AfterFunc(half, enqueue)
	} else {
		enqueue()
	}
	return fut
}

// Outstanding implements executor.Executor.
func (c *Central) Outstanding() int { return int(c.outstanding.Load()) }

// Shutdown implements executor.Executor.
func (c *Central) Shutdown() error {
	c.once.Do(func() { close(c.done) })
	c.wg.Wait()
	return nil
}
