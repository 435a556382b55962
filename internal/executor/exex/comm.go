package exex

// The MPI communication fabric that EXEX uses via mpi4py on Cray systems
// (§4.3.2), simulated: a comm is a set of ranks backed by goroutines and
// per-rank mailboxes; rank 0 acts as the manager and the remaining ranks as
// workers.
//
// The simulation reproduces MPI's many-task drawback the paper calls out: a
// rank failure aborts the whole communicator ("job and node failures can
// result in the loss of the entire MPI application"), which is exercised by
// the EXEX fault-tolerance tests.

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// anySource matches any sending rank in recv, like MPI_ANY_SOURCE.
const anySource = -1

// errAborted is returned by operations on a communicator that has been
// aborted (by abort or by a simulated rank failure).
var errAborted = errors.New("mpi: communicator aborted")

// errRankRange indicates a rank outside [0, size).
var errRankRange = errors.New("mpi: rank out of range")

// envelope is a received message with its metadata.
type envelope struct {
	Source int
	Tag    int
	Data   []byte
}

// comm is a simulated MPI communicator of size ranks. Point-to-point latency
// models the optimized HPC interconnect and defaults to zero.
type comm struct {
	size    int
	latency time.Duration

	mu      sync.Mutex
	queues  [][]envelope // per-destination mailbox
	conds   []*sync.Cond
	aborted bool
	abortMu sync.RWMutex
}

// newComm creates a communicator with n ranks.
func newComm(n int) (*comm, error) {
	if n <= 0 {
		return nil, fmt.Errorf("mpi: communicator size %d", n)
	}
	c := &comm{size: n, queues: make([][]envelope, n), conds: make([]*sync.Cond, n)}
	for i := range c.conds {
		c.conds[i] = sync.NewCond(&c.mu)
	}
	return c, nil
}

// setLatency sets the simulated point-to-point one-way latency.
func (c *comm) setLatency(d time.Duration) { c.latency = d }

// isAborted reports whether the communicator has been torn down.
func (c *comm) isAborted() bool {
	c.abortMu.RLock()
	defer c.abortMu.RUnlock()
	return c.aborted
}

// abort tears down the communicator. Every blocked and future operation
// returns errAborted — the whole "MPI job" dies, which is exactly the fault
// model §4.3.2 describes.
func (c *comm) abort() {
	c.abortMu.Lock()
	if c.aborted {
		c.abortMu.Unlock()
		return
	}
	c.aborted = true
	c.abortMu.Unlock()

	c.mu.Lock()
	for _, cond := range c.conds {
		cond.Broadcast()
	}
	c.mu.Unlock()
}

func (c *comm) checkRank(r int) error {
	if r < 0 || r >= c.size {
		return fmt.Errorf("%w: %d (size %d)", errRankRange, r, c.size)
	}
	return nil
}

// send delivers data to rank dest with the given tag. It does not block on
// the receiver (buffered/eager semantics, like small-message MPI sends).
func (c *comm) send(src, dest, tag int, data []byte) error {
	if c.isAborted() {
		return errAborted
	}
	if err := c.checkRank(src); err != nil {
		return err
	}
	if err := c.checkRank(dest); err != nil {
		return err
	}
	if c.latency > 0 {
		time.Sleep(c.latency)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	c.mu.Lock()
	c.queues[dest] = append(c.queues[dest], envelope{Source: src, Tag: tag, Data: cp})
	c.conds[dest].Broadcast()
	c.mu.Unlock()
	return nil
}

// recv blocks until a message for rank dest matching source (or anySource)
// and tag arrives, or the communicator aborts.
func (c *comm) recv(dest, source, tag int) (envelope, error) {
	if err := c.checkRank(dest); err != nil {
		return envelope{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.isAborted() {
			return envelope{}, errAborted
		}
		for i, env := range c.queues[dest] {
			if (source == anySource || env.Source == source) && env.Tag == tag {
				c.queues[dest] = append(c.queues[dest][:i], c.queues[dest][i+1:]...)
				return env, nil
			}
		}
		c.conds[dest].Wait()
	}
}
