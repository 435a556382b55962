// Package exex implements Parsl's Extreme Scale Executor (§4.3.2). EXEX
// targets the largest machines by replacing per-worker network connections
// with MPI inside each worker pool: rank 0 of a pool acts as the manager,
// speaking the interchange protocol on behalf of the worker ranks, which
// communicate over the (simulated) MPI fabric. The hierarchy is what lets
// EXEX reach 262 144 workers where connection-per-worker designs exhaust the
// hub.
//
// Rank 0 is an htex.Manager, not a second implementation of one: a pool is
// the manager constructed with an exec step that hands the task envelope to
// an MPI rank and waits for that rank's result. Registration and prefetch,
// CANCEL of buffered tasks, NACK stream resync, result batching, heartbeats,
// exit on interchange silence, the acked BYE drain and the chaos kill point
// are therefore the manager's, shared with HTEX. What is EXEX's own is below:
// the communicator, the worker-rank loop, and the fault model.
//
// That fault model is MPI's: a single rank failure aborts the entire pool,
// which surfaces here exactly as the paper describes — rank 0 stops without
// a goodbye and every in-flight task of the pool is reported lost. The
// recommended mitigation, several smaller pools per scheduler job, is the
// deployment shape New builds (one pool per node).
package exex

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/executor"
	"repro/internal/executor/htex"
	"repro/internal/provider"
	"repro/internal/serialize"
	"repro/internal/simnet"
)

// MPI message tags used inside a pool. Nothing is ever sent under tagAbort:
// rank 0 parks a receive on it to learn of a communicator abort.
const (
	tagTask   = 1
	tagResult = 2
	tagAbort  = 3
)

// PoolConfig tunes one MPI worker pool.
type PoolConfig struct {
	// Ranks is the MPI communicator size: 1 manager + (Ranks-1) workers
	// (at least 2).
	Ranks int
	// Prefetch is extra capacity advertised beyond worker count.
	Prefetch int
	// HeartbeatPeriod is the manager's interchange heartbeat.
	HeartbeatPeriod time.Duration
	// MPILatency simulates fabric point-to-point latency.
	MPILatency time.Duration
}

// managerConfig is the one PoolConfig -> ManagerConfig mapping: rank 0 runs
// with it, and New hands the same value to the htex client so its heartbeat
// cross-check and worker count see the clock and size the pools really use.
// Zero fields take ManagerConfig's defaults.
func (c PoolConfig) managerConfig() htex.ManagerConfig {
	return htex.ManagerConfig{
		Workers:         max(c.Ranks-1, 1),
		Prefetch:        c.Prefetch,
		HeartbeatPeriod: c.HeartbeatPeriod,
	}
}

// Pool is one MPI job: rank 0, the embedded manager, plus worker ranks.
// ID, Executed, Drain, Stop and Wait are the manager's.
type Pool struct {
	*htex.Manager
	comm *comm
	reg  *serialize.Registry
}

// StartPool launches an MPI pool whose rank 0 registers with the interchange
// at addr.
func StartPool(tr simnet.Transport, addr, id string, reg *serialize.Registry, cfg PoolConfig) (*Pool, error) {
	mc := cfg.managerConfig()
	c, err := newComm(mc.Workers + 1)
	if err != nil {
		return nil, fmt.Errorf("exex: pool %s: %w", id, err)
	}
	c.setLatency(cfg.MPILatency)
	p := &Pool{comm: c, reg: reg}
	for r := 1; r <= mc.Workers; r++ {
		go p.workerRank(fmt.Sprintf("%s/rank%d", id, r), r)
	}
	if p.Manager, err = htex.StartManagerExec(tr, addr, id, mc, p.runOnRank); err != nil {
		c.abort()
		return nil, fmt.Errorf("exex: pool %s: %w", id, err)
	}
	// The MPI job and its manager live and die together. A communicator
	// abort (rank failure) stops rank 0 without a BYE even when no task is in
	// flight to notice it, so the interchange declares the pool lost; a
	// stopped manager (Stop, Drain, interchange silence, chaos kill) aborts
	// the communicator, which is what releases the worker ranks.
	go func() {
		_, _ = c.recv(0, anySource, tagAbort) // returns only on abort
		p.Stop()
	}()
	go func() {
		p.Wait()
		c.abort()
	}()
	return p, nil
}

// workerRank is the code running on MPI ranks 1..n-1: receive a task over
// MPI, execute, send the result back to rank 0. Rank 0 blocks on that
// result, so every task received is answered — or the rank aborts the job.
func (p *Pool) workerRank(workerID string, rank int) {
	for {
		env, err := p.comm.recv(rank, 0, tagTask)
		if err != nil {
			return // communicator aborted: the whole pool dies
		}
		task, err := serialize.DecodeTask(env.Data)
		if err != nil {
			p.comm.abort() // rank 0 sent it intact; the fabric is broken
			return
		}
		// A result value that does not serialize travels as the task's error
		// result (serialize.EncodeResult), so only the fabric can fail here.
		res := executor.RunKernel(p.reg, task, workerID)
		if p.comm.send(rank, 0, tagResult, serialize.EncodeResult(res)) != nil {
			p.comm.abort()
			return
		}
	}
}

// runOnRank is the manager's exec step: worker slot i is MPI rank i+1. The
// MPI interior uses standalone frames (every rank must decode on its own),
// and the argument payload inside is the submit-time encoding, forwarded
// byte-for-byte — rank 0 never re-serializes arguments. An error from the
// communicator (or bytes off it that do not decode) takes the pool down.
func (p *Pool) runOnRank(slot int, w serialize.WireTask) (serialize.ResultMsg, error) {
	if err := p.comm.send(0, slot+1, tagTask, serialize.EncodeWire(w)); err != nil {
		return serialize.ResultMsg{}, err
	}
	env, err := p.comm.recv(0, slot+1, tagResult)
	if err != nil {
		return serialize.ResultMsg{}, err
	}
	return serialize.DecodeResult(env.Data)
}

// Config assembles an EXEX deployment: an HTEX-protocol interchange plus
// MPI pools placed by the provider (one pool per node, the "several smaller
// MPI worker pools within a single scheduler job" mitigation).
type Config struct {
	Label       string
	Transport   simnet.Transport
	Registry    *serialize.Registry
	Provider    provider.Provider
	InitBlocks  int
	Pool        PoolConfig
	Interchange htex.InterchangeConfig
}

// Executor is the EXEX client: the HTEX client/interchange machinery with
// MPI pools as node payloads. Embedding htex.Executor also promotes its
// native SubmitInto, so the DFK's batched dispatch reaches EXEX pools as
// one TASKB frame into the shared interchange, settling the DFK's own
// futures, rather than through the generic per-task fallback.
type Executor struct {
	*htex.Executor
	poolSeq atomic.Int64
}

// New creates an EXEX executor.
func New(cfg Config) *Executor {
	if cfg.Label == "" {
		cfg.Label = "exex"
	}
	if cfg.Transport == nil {
		cfg.Transport = simnet.NewNetwork(0)
	}
	e := &Executor{}
	inner := htex.New(htex.Config{
		Label:       cfg.Label,
		Transport:   cfg.Transport,
		Registry:    cfg.Registry,
		Provider:    cfg.Provider,
		InitBlocks:  cfg.InitBlocks,
		Manager:     cfg.Pool.managerConfig(),
		Interchange: cfg.Interchange,
		PayloadFactory: func(addr string, node provider.Node) (func(), error) {
			id := fmt.Sprintf("pool-%s-%d", node.BlockID, e.poolSeq.Add(1))
			pool, err := StartPool(cfg.Transport, addr, id, cfg.Registry, cfg.Pool)
			if err != nil {
				return nil, err
			}
			return pool.Drain, nil
		},
	})
	e.Executor = inner
	return e
}
