// Package provider implements Parsl's execution-provider abstraction (§4.2):
// a uniform submit/status/cancel interface over vastly different resource
// types. The unit of acquisition is the block (§4.2.3) — one scheduler job
// on a cluster, one API request on a cloud — and elasticity happens in whole
// blocks.
//
// The batch provider (Slurm) drives the internal/cluster LRM simulator
// directly; the channels and launchers of §4.2 are not modelled. Cloud providers (AWS, GoogleCloud, Jetstream,
// Kubernetes) model instance acquisition with startup latency. The Local
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
	// Name identifies the provider type ("slurm", "aws", ...).
	Name() string
	// NodesPerBlock returns the block size in nodes.
	NodesPerBlock() int
	// SubmitBlock requests one block, launching payload on each node when
	// the block starts. It returns a provider-scoped block id.
	SubmitBlock(payload Payload) (string, error)
	// Status reports the state of a block.
	Status(blockID string) (Status, error)
	// CancelBlock releases a block.
	CancelBlock(blockID string) error
	// Blocks lists known block ids.
	Blocks() []string
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

// Name implements Provider.
func (l *Local) Name() string { return "local" }

// NodesPerBlock implements Provider.
func (l *Local) NodesPerBlock() int { return l.cfg.NodesPerBlock }

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

// Blocks implements Provider.
func (l *Local) Blocks() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, 0, len(l.blocks))
	for id := range l.blocks {
		out = append(out, id)
	}
	return out
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

// Name implements Provider.
func (b *Batch) Name() string { return "slurm" }

// NodesPerBlock implements Provider.
func (b *Batch) NodesPerBlock() int { return b.cfg.NodesPerBlock }

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

// Blocks implements Provider.
func (b *Batch) Blocks() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]string, 0, len(b.blocks))
	for id := range b.blocks {
		out = append(out, id)
	}
	return out
}

// ---------------------------------------------------------------------------
// Cloud providers
// ---------------------------------------------------------------------------

// Cloud models instance-based acquisition: one block = one API request for
// NodesPerBlock instances, each becoming available after StartupDelay (VM
// boot / container pull time).
type Cloud struct {
	cfg Config
	// provider flavor
	flavor string
	// StartupDelay models instance boot time.
	StartupDelay time.Duration
	// InstanceLimit caps total instances (account quota); 0 = unlimited.
	InstanceLimit int

	mu        sync.Mutex
	seq       int
	instances int
	blocks    map[string]*cloudBlock
}

type cloudBlock struct {
	status Status
	stops  []func()
	cancel chan struct{}
}

// NewAWS models EC2 spot/on-demand instances.
func NewAWS(cfg Config) *Cloud { return newCloud("aws", cfg, 800*time.Millisecond) }

// NewGoogleCloud models GCE instances.
func NewGoogleCloud(cfg Config) *Cloud { return newCloud("googlecloud", cfg, 700*time.Millisecond) }

// NewJetstream models Jetstream (OpenStack) instances.
func NewJetstream(cfg Config) *Cloud { return newCloud("jetstream", cfg, 900*time.Millisecond) }

// NewKubernetes models pod scheduling (fast startup).
func NewKubernetes(cfg Config) *Cloud { return newCloud("kubernetes", cfg, 100*time.Millisecond) }

func newCloud(flavor string, cfg Config, delay time.Duration) *Cloud {
	cfg.normalize()
	return &Cloud{cfg: cfg, flavor: flavor, StartupDelay: delay, blocks: make(map[string]*cloudBlock)}
}

// Name implements Provider.
func (c *Cloud) Name() string { return c.flavor }

// NodesPerBlock implements Provider.
func (c *Cloud) NodesPerBlock() int { return c.cfg.NodesPerBlock }

// ErrQuota is returned when the instance limit would be exceeded.
var ErrQuota = errors.New("provider: instance quota exceeded")

// SubmitBlock implements Provider.
func (c *Cloud) SubmitBlock(payload Payload) (string, error) {
	c.mu.Lock()
	if c.InstanceLimit > 0 && c.instances+c.cfg.NodesPerBlock > c.InstanceLimit {
		c.mu.Unlock()
		return "", fmt.Errorf("%w: %d + %d > %d", ErrQuota, c.instances, c.cfg.NodesPerBlock, c.InstanceLimit)
	}
	c.seq++
	c.instances += c.cfg.NodesPerBlock
	id := fmt.Sprintf("%s-block-%d", c.flavor, c.seq)
	blk := &cloudBlock{status: StatusPending, cancel: make(chan struct{})}
	c.blocks[id] = blk
	c.mu.Unlock()

	go func() {
		select {
		case <-time.After(c.StartupDelay):
		case <-blk.cancel:
			return
		}
		c.mu.Lock()
		if blk.status != StatusPending {
			c.mu.Unlock()
			return
		}
		blk.status = StatusRunning
		c.mu.Unlock()
		for n := 0; n < c.cfg.NodesPerBlock; n++ {
			c.mu.Lock()
			cancelled := blk.status != StatusRunning
			c.mu.Unlock()
			if cancelled {
				return
			}
			stop, err := payload(Node{ID: n, Host: fmt.Sprintf("%s/%s/vm%d", c.flavor, id, n), BlockID: id})
			if err != nil {
				continue
			}
			c.mu.Lock()
			cancelled = blk.status != StatusRunning
			if !cancelled {
				blk.stops = append(blk.stops, stop)
			}
			c.mu.Unlock()
			if cancelled {
				// CancelBlock already took the stops it could see; this node
				// came up after it and is released here.
				if stop != nil {
					stop()
				}
				return
			}
		}
	}()
	return id, nil
}

// Status implements Provider.
func (c *Cloud) Status(id string) (Status, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	blk, ok := c.blocks[id]
	if !ok {
		return StatusUnknown, fmt.Errorf("%w: %s", ErrNoBlock, id)
	}
	return blk.status, nil
}

// CancelBlock implements Provider: terminate instances. Cancelling a block
// twice releases its instances once.
func (c *Cloud) CancelBlock(id string) error {
	c.mu.Lock()
	blk, ok := c.blocks[id]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNoBlock, id)
	}
	prev := blk.status
	if prev == StatusCancelled {
		c.mu.Unlock()
		return nil
	}
	blk.status = StatusCancelled
	stops := blk.stops
	blk.stops = nil
	c.instances -= c.cfg.NodesPerBlock
	c.mu.Unlock()

	if prev == StatusPending {
		close(blk.cancel)
	}
	for _, s := range stops {
		if s != nil {
			s()
		}
	}
	return nil
}

// Blocks implements Provider.
func (c *Cloud) Blocks() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.blocks))
	for id := range c.blocks {
		out = append(out, id)
	}
	return out
}
