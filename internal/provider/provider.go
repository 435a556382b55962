// Package provider implements Parsl's execution-provider abstraction (§4.2):
// a uniform submit/status/cancel interface over vastly different resource
// types. The unit of acquisition is the block (§4.2.3) — one scheduler job
// on a cluster — and elasticity happens in whole blocks.
//
// The batch provider (Slurm) drives the internal/cluster LRM simulator
// directly; the channels and launchers of §4.2 are not modelled. The Local
// provider forks "nodes" in-process for laptops.
package provider

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
)

// Status is the uniform job state reported by Status, mirroring Parsl's
// JobState.
type Status string

// Provider-visible block states.
const (
	StatusPending   Status = "pending"
	StatusRunning   Status = "running"
	StatusCompleted Status = "completed"
	StatusCancelled Status = "cancelled"
	StatusFailed    Status = "failed"
	StatusUnknown   Status = "unknown"
)

// Node describes one allocated node handed to the executor's payload.
type Node struct {
	ID      int    // provider-scoped node identifier
	Host    string // synthetic hostname
	BlockID string
}

// Payload is what the executor runs on each node of a block (e.g. an HTEX
// manager). It returns a stop function invoked at deallocation, or an error
// if the node could not be brought up.
type Payload func(n Node) (stop func(), err error)

// Provider acquires and releases blocks of resources.
type Provider interface {
	// SubmitBlock requests one block, launching payload on each node when
	// the block starts. It returns a provider-scoped block id.
	SubmitBlock(payload Payload) (string, error)
	// Status reports the state of a block.
	Status(blockID string) (Status, error)
	// CancelBlock releases a block.
	CancelBlock(blockID string) error
}

// ErrNoBlock is returned for unknown block ids.
var ErrNoBlock = errors.New("provider: no such block")

// Config carries the common provider options from Parsl's config object
// (Listing 1): block geometry and the scheduler limits the LRM enforces.
type Config struct {
	NodesPerBlock int
	Walltime      time.Duration
	Partition     string
}

func (c *Config) normalize() {
	if c.NodesPerBlock <= 0 {
		c.NodesPerBlock = 1
	}
}

// ---------------------------------------------------------------------------
// Local provider
// ---------------------------------------------------------------------------

// Local forks blocks in-process: each "node" is immediately available. It is
// Parsl's LocalProvider (fork) for workstations and laptops.
type Local struct {
	cfg Config

	mu     sync.Mutex
	seq    int
	blocks map[string]*localBlock
}

type localBlock struct {
	status Status
	stops  []func()
}

// NewLocal creates a local provider.
func NewLocal(cfg Config) *Local {
	cfg.normalize()
	return &Local{cfg: cfg, blocks: make(map[string]*localBlock)}
}

// SubmitBlock implements Provider.
func (l *Local) SubmitBlock(payload Payload) (string, error) {
	l.mu.Lock()
	l.seq++
	id := fmt.Sprintf("local-%d", l.seq)
	blk := &localBlock{status: StatusRunning}
	l.blocks[id] = blk
	l.mu.Unlock()

	for n := 0; n < l.cfg.NodesPerBlock; n++ {
		stop, err := payload(Node{ID: n, Host: fmt.Sprintf("localhost/%s/%d", id, n), BlockID: id})
		if err != nil {
			l.mu.Lock()
			blk.status = StatusFailed
			l.mu.Unlock()
			l.stopBlock(blk)
			return id, fmt.Errorf("provider: local payload: %w", err)
		}
		l.mu.Lock()
		blk.stops = append(blk.stops, stop)
		l.mu.Unlock()
	}
	return id, nil
}

func (l *Local) stopBlock(blk *localBlock) {
	l.mu.Lock()
	stops := blk.stops
	blk.stops = nil
	l.mu.Unlock()
	for _, s := range stops {
		if s != nil {
			s()
		}
	}
}

// Status implements Provider.
func (l *Local) Status(id string) (Status, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	blk, ok := l.blocks[id]
	if !ok {
		return StatusUnknown, fmt.Errorf("%w: %s", ErrNoBlock, id)
	}
	return blk.status, nil
}

// CancelBlock implements Provider.
func (l *Local) CancelBlock(id string) error {
	l.mu.Lock()
	blk, ok := l.blocks[id]
	if ok && blk.status == StatusRunning {
		blk.status = StatusCancelled
	}
	l.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoBlock, id)
	}
	l.stopBlock(blk)
	return nil
}

// ---------------------------------------------------------------------------
// Batch (LRM) providers
// ---------------------------------------------------------------------------

// Batch drives a simulated LRM as Slurm.
type Batch struct {
	cfg Config
	cl  *cluster.Cluster

	mu     sync.Mutex
	seq    int
	blocks map[string]*batchBlock
}

type batchBlock struct {
	job   *cluster.Job
	stops []func()
}

// NewSlurm creates a Slurm provider over the given simulated cluster.
func NewSlurm(cl *cluster.Cluster, cfg Config) *Batch {
	cfg.normalize()
	return &Batch{cfg: cfg, cl: cl, blocks: make(map[string]*batchBlock)}
}

// SubmitBlock implements Provider: it queues one LRM job for the block; the
// payload starts on each node when the job leaves the queue.
func (b *Batch) SubmitBlock(payload Payload) (string, error) {
	b.mu.Lock()
	b.seq++
	id := fmt.Sprintf("slurm-block-%d", b.seq)
	blk := &batchBlock{}
	b.blocks[id] = blk
	b.mu.Unlock()

	spec := cluster.JobSpec{
		Name:      "parsl." + id,
		Nodes:     b.cfg.NodesPerBlock,
		Walltime:  b.cfg.Walltime,
		Partition: b.cfg.Partition,
		OnStart: func(job *cluster.Job) {
			for _, nodeID := range job.Nodes() {
				stop, err := payload(Node{
					ID:      nodeID,
					Host:    fmt.Sprintf("%s-nid%05d", b.cl.Config().Name, nodeID),
					BlockID: id,
				})
				if err != nil {
					continue // a node that fails to start leaves capacity down
				}
				b.mu.Lock()
				blk.stops = append(blk.stops, stop)
				b.mu.Unlock()
			}
		},
		OnStop: func(job *cluster.Job, reason cluster.StopReason) {
			b.mu.Lock()
			stops := blk.stops
			blk.stops = nil
			b.mu.Unlock()
			for _, s := range stops {
				if s != nil {
					s()
				}
			}
		},
	}
	job, err := b.cl.Submit(spec)
	if err != nil {
		b.mu.Lock()
		delete(b.blocks, id)
		b.mu.Unlock()
		return "", fmt.Errorf("provider: sbatch %s: %w", id, err)
	}
	b.mu.Lock()
	blk.job = job
	b.mu.Unlock()
	return id, nil
}

// Status implements Provider, translating LRM job states.
func (b *Batch) Status(id string) (Status, error) {
	b.mu.Lock()
	blk, ok := b.blocks[id]
	b.mu.Unlock()
	if !ok || blk.job == nil {
		return StatusUnknown, fmt.Errorf("%w: %s", ErrNoBlock, id)
	}
	switch blk.job.State() {
	case cluster.Queued:
		return StatusPending, nil
	case cluster.Running:
		return StatusRunning, nil
	case cluster.Completed:
		return StatusCompleted, nil
	case cluster.Cancelled:
		return StatusCancelled, nil
	case cluster.Failed:
		return StatusFailed, nil
	default:
		return StatusUnknown, nil
	}
}

// CancelBlock implements Provider (scancel and friends).
func (b *Batch) CancelBlock(id string) error {
	b.mu.Lock()
	blk, ok := b.blocks[id]
	b.mu.Unlock()
	if !ok || blk.job == nil {
		return fmt.Errorf("%w: %s", ErrNoBlock, id)
	}
	return b.cl.Cancel(blk.job.ID)
}
