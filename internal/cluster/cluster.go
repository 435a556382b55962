// Package cluster simulates a batch-scheduled HPC cluster — the Local
// Resource Manager substrate (Slurm on Midway) that Parsl's providers drive
// (§4.2). It models a node pool, a FIFO job queue with configurable
// scheduler latency, walltime enforcement, per-job node limits,
// cancellation, and node-failure injection.
//
// The providers in internal/provider translate sbatch/scancel-style
// verbs onto this simulator, which is what lets the elasticity experiment
// (Fig. 6) provision and deprovision blocks exactly as the paper's runs did,
// including queue delays ("in an HPC setting, elasticity may be complicated
// by queue delays", §4.4).
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// JobState is the lifecycle of a batch job.
type JobState int

const (
	// Queued: accepted, waiting for nodes.
	Queued JobState = iota
	// Running: nodes allocated, user payload started.
	Running
	// Completed: walltime expired cleanly.
	Completed
	// Cancelled: removed by scancel.
	Cancelled
	// Failed: lost to a node failure.
	Failed
)

// String implements fmt.Stringer.
func (s JobState) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Completed:
		return "completed"
	case Cancelled:
		return "cancelled"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("JobState(%d)", int(s))
	}
}

// StopReason explains why a job's payload was stopped.
type StopReason string

// Stop reasons passed to JobSpec.OnStop.
const (
	ReasonWalltime    StopReason = "walltime"
	ReasonCancelled   StopReason = "cancelled"
	ReasonNodeFailure StopReason = "node_failure"
)

// JobSpec describes a submission — the analogue of an sbatch script.
type JobSpec struct {
	Name      string
	Nodes     int
	Walltime  time.Duration
	Partition string
	// OnStart runs (on its own goroutine) when nodes are allocated; the
	// provider uses it to launch workers onto the allocation.
	OnStart func(job *Job)
	// OnStop runs when the job stops for any reason.
	OnStop func(job *Job, reason StopReason)
}

// Job is a live or historical batch job.
type Job struct {
	ID    int64
	Spec  JobSpec
	nodes []int

	mu        sync.Mutex
	state     JobState
	submitted time.Time
	stopTimer *time.Timer
}

// State returns the job's current state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Nodes returns the allocated node ids (empty until Running).
func (j *Job) Nodes() []int {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]int, len(j.nodes))
	copy(out, j.nodes)
	return out
}

// Config describes the simulated machine.
type Config struct {
	Name         string
	Nodes        int
	CoresPerNode int
	// QueueDelay is the minimum scheduler latency between submission and
	// node allocation, modeling LRM scheduling cycles and queue waits.
	QueueDelay time.Duration
	// MaxNodesPerJob enforces the site policy Parsl's block abstraction
	// works around (§4.2.3); 0 means unlimited.
	MaxNodesPerJob int
	// Partitions lists valid partition names; empty accepts anything.
	Partitions []string
}

// Midway returns the Midway campus-cluster shape used in §5 (28-core
// Broadwell nodes, "broadwl" partition).
func Midway(nodes int) Config {
	return Config{Name: "midway", Nodes: nodes, CoresPerNode: 28, Partitions: []string{"broadwl"}}
}

// Cluster is the simulated machine plus its batch scheduler.
type Cluster struct {
	cfg Config

	mu         sync.Mutex
	freeNodes  []int
	failed     map[int]bool
	queue      []*Job
	jobs       map[int64]*Job
	nextID     int64
	closed     bool
	jobsOnNode map[int]*Job
}

// Errors returned by Submit and Cancel.
var (
	ErrClosed       = errors.New("cluster: closed")
	ErrBadPartition = errors.New("cluster: unknown partition")
	ErrTooManyNodes = errors.New("cluster: request exceeds per-job node limit")
	ErrNoSuchJob    = errors.New("cluster: no such job")
)

// New creates a cluster from cfg.
func New(cfg Config) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("cluster: %d nodes", cfg.Nodes)
	}
	if cfg.CoresPerNode <= 0 {
		cfg.CoresPerNode = 1
	}
	c := &Cluster{
		cfg:        cfg,
		failed:     make(map[int]bool),
		jobs:       make(map[int64]*Job),
		jobsOnNode: make(map[int]*Job),
	}
	for i := 0; i < cfg.Nodes; i++ {
		c.freeNodes = append(c.freeNodes, i)
	}
	return c, nil
}

// Config returns the machine description.
func (c *Cluster) Config() Config { return c.cfg }

// Submit queues a job, like sbatch. The returned Job is live immediately;
// its payload starts after scheduling latency once nodes are available.
func (c *Cluster) Submit(spec JobSpec) (*Job, error) {
	if spec.Nodes <= 0 {
		return nil, fmt.Errorf("cluster: job requests %d nodes", spec.Nodes)
	}
	if c.cfg.MaxNodesPerJob > 0 && spec.Nodes > c.cfg.MaxNodesPerJob {
		return nil, fmt.Errorf("%w: %d > %d", ErrTooManyNodes, spec.Nodes, c.cfg.MaxNodesPerJob)
	}
	if spec.Nodes > c.cfg.Nodes {
		return nil, fmt.Errorf("cluster: job requests %d nodes, machine has %d", spec.Nodes, c.cfg.Nodes)
	}
	if len(c.cfg.Partitions) > 0 && spec.Partition != "" {
		ok := false
		for _, p := range c.cfg.Partitions {
			if p == spec.Partition {
				ok = true
				break
			}
		}
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrBadPartition, spec.Partition)
		}
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	c.nextID++
	job := &Job{ID: c.nextID, Spec: spec, state: Queued, submitted: time.Now()}
	c.jobs[job.ID] = job
	c.queue = append(c.queue, job)
	c.mu.Unlock()

	if c.cfg.QueueDelay > 0 {
		time.AfterFunc(c.cfg.QueueDelay, c.trySchedule)
	} else {
		go c.trySchedule()
	}
	return job, nil
}

// trySchedule allocates queued jobs FIFO (no backfill — strict order, which
// is the conservative policy and keeps behaviour deterministic).
func (c *Cluster) trySchedule() {
	for {
		c.mu.Lock()
		if c.closed || len(c.queue) == 0 {
			c.mu.Unlock()
			return
		}
		job := c.queue[0]
		if job.State() != Queued {
			c.queue = c.queue[1:]
			c.mu.Unlock()
			continue
		}
		if job.Spec.Nodes > len(c.freeNodes) {
			c.mu.Unlock()
			return // head-of-line blocks; a release will retry
		}
		// Enforce minimum queue delay.
		if c.cfg.QueueDelay > 0 && time.Since(job.submitted) < c.cfg.QueueDelay {
			remaining := c.cfg.QueueDelay - time.Since(job.submitted)
			c.mu.Unlock()
			time.AfterFunc(remaining, c.trySchedule)
			return
		}
		c.queue = c.queue[1:]
		alloc := c.freeNodes[:job.Spec.Nodes]
		c.freeNodes = c.freeNodes[job.Spec.Nodes:]

		job.mu.Lock()
		job.state = Running
		job.nodes = append([]int(nil), alloc...)
		for _, n := range alloc {
			c.jobsOnNode[n] = job
		}
		if job.Spec.Walltime > 0 {
			job.stopTimer = time.AfterFunc(job.Spec.Walltime, func() {
				c.stopJob(job, ReasonWalltime, Completed)
			})
		}
		job.mu.Unlock()
		c.mu.Unlock()

		if job.Spec.OnStart != nil {
			go job.Spec.OnStart(job)
		}
	}
}

// stopJob transitions a running job to a terminal state and releases nodes.
func (c *Cluster) stopJob(job *Job, reason StopReason, final JobState) {
	job.mu.Lock()
	if job.state != Running {
		job.mu.Unlock()
		return
	}
	job.state = final
	if job.stopTimer != nil {
		job.stopTimer.Stop()
	}
	nodes := job.nodes
	job.mu.Unlock()

	c.mu.Lock()
	for _, n := range nodes {
		delete(c.jobsOnNode, n)
		if !c.failed[n] {
			c.freeNodes = append(c.freeNodes, n)
		}
	}
	c.mu.Unlock()

	if job.Spec.OnStop != nil {
		job.Spec.OnStop(job, reason)
	}
	go c.trySchedule()
}

// Cancel is scancel: dequeues a queued job or stops a running one.
func (c *Cluster) Cancel(id int64) error {
	job, err := c.lookup(id)
	if err != nil {
		return err
	}
	job.mu.Lock()
	if job.state == Queued {
		job.state = Cancelled
		job.mu.Unlock()
		if job.Spec.OnStop != nil {
			job.Spec.OnStop(job, ReasonCancelled)
		}
		return nil
	}
	job.mu.Unlock()
	c.stopJob(job, ReasonCancelled, Cancelled)
	return nil
}

func (c *Cluster) lookup(id int64) (*Job, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	job, ok := c.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchJob, id)
	}
	return job, nil
}

// FailNode simulates a node crash: the job running on it fails (losing its
// whole allocation, as on a real machine) and the node stays out of service
// until RepairNode.
func (c *Cluster) FailNode(node int) error {
	if node < 0 || node >= c.cfg.Nodes {
		return fmt.Errorf("cluster: node %d out of range", node)
	}
	c.mu.Lock()
	if c.failed[node] {
		c.mu.Unlock()
		return nil
	}
	c.failed[node] = true
	// Remove from free list if present.
	for i, n := range c.freeNodes {
		if n == node {
			c.freeNodes = append(c.freeNodes[:i], c.freeNodes[i+1:]...)
			break
		}
	}
	victim := c.jobsOnNode[node]
	c.mu.Unlock()

	if victim != nil {
		c.stopJob(victim, ReasonNodeFailure, Failed)
	}
	return nil
}

// RepairNode returns a failed node to service.
func (c *Cluster) RepairNode(node int) error {
	if node < 0 || node >= c.cfg.Nodes {
		return fmt.Errorf("cluster: node %d out of range", node)
	}
	c.mu.Lock()
	if c.failed[node] {
		delete(c.failed, node)
		c.freeNodes = append(c.freeNodes, node)
	}
	c.mu.Unlock()
	go c.trySchedule()
	return nil
}

// Stats is a point-in-time squeue/sinfo summary.
type Stats struct {
	FreeNodes   int
	BusyNodes   int
	FailedNodes int
	QueuedJobs  int
	RunningJobs int
}

// Stats returns current utilization numbers.
func (c *Cluster) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{FreeNodes: len(c.freeNodes), FailedNodes: len(c.failed)}
	s.BusyNodes = c.cfg.Nodes - s.FreeNodes - s.FailedNodes
	for _, j := range c.queue {
		if j.State() == Queued {
			s.QueuedJobs++
		}
	}
	for _, j := range c.jobs {
		if j.State() == Running {
			s.RunningJobs++
		}
	}
	return s
}

// Close cancels all jobs and rejects future submissions.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	var all []*Job
	for _, j := range c.jobs {
		all = append(all, j)
	}
	queued := c.queue
	c.queue = nil
	c.mu.Unlock()

	for _, j := range queued {
		j.mu.Lock()
		if j.state == Queued {
			j.state = Cancelled
		}
		j.mu.Unlock()
	}
	for _, j := range all {
		if j.State() == Running {
			c.stopJob(j, ReasonCancelled, Cancelled)
		}
	}
}
