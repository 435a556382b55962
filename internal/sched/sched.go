// Package sched defines the DataFlowKernel's pluggable executor-selection
// layer. The paper's DFK picks "at random" when multiple executors are
// eligible (§4.1); this package keeps that policy as the default while
// making the choice an interface fed by live load signals, so capacity-aware
// policies can route tasks toward the executor most able to absorb them.
//
// A Scheduler sees the eligible executors for one ready task (already
// filtered by the task's execution hints) and picks one. Policies must be
// safe for concurrent use: the DFK calls Pick on whichever goroutine makes a
// task ready — the submitter, the goroutine that completed the task's last
// input, or a retry's timer — so many picks run at once.
package sched

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/executor"
)

// ErrNoExecutors is returned by Pick when the candidate set is empty.
var ErrNoExecutors = errors.New("sched: no executors available")

// Scheduler picks an executor for a ready task from the eligible set.
type Scheduler interface {
	// Name identifies the policy in config and monitoring output.
	Name() string
	// Pick returns one of candidates. Implementations must not retain the
	// slice. An empty candidate set returns ErrNoExecutors.
	//
	// Load-aware policies must read load via LoadOf, not by asserting
	// candidates to concrete executor types: the DFK hands Pick views of
	// its executors that expose the load signals, its own routed backlog
	// included, but not the executor's other interfaces (Scalable,
	// BatchSubmitter, ...).
	Pick(candidates []executor.Executor) (executor.Executor, error)
}

// Load is one executor's live load signal set.
type Load struct {
	Label string
	// Outstanding is submitted-but-incomplete tasks (Executor.Outstanding).
	Outstanding int
	// Workers is live capacity: Scalable.ConnectedWorkers for elastic
	// executors, a Workers() probe when exposed (threadpool), otherwise 0
	// for "unknown".
	Workers int
	// HasDigest is the locality view: it probes whether the executor's
	// fleet currently holds a content digest (a manager behind it has
	// returned a result for — and so holds warm — a task with those exact
	// input bytes). It is a bound method, not a copied set: digest sets can
	// be large and change with every returned result, so the probe reads the
	// live record. Nil when the executor exposes no digest signal.
	HasDigest func(digest string) bool
}

// PerWorker is outstanding work normalized by capacity; with unknown
// capacity the raw outstanding count is used, so a 1-worker executor and an
// unknown-capacity executor with equal backlogs compare equal.
func (l Load) PerWorker() float64 {
	if l.Workers <= 0 {
		return float64(l.Outstanding)
	}
	return float64(l.Outstanding) / float64(l.Workers)
}

// workerCounter is the non-Scalable capacity probe (threadpool.Workers).
type workerCounter interface{ Workers() int }

// digestHolder is the data-locality probe (htex.Executor.HoldsDigest,
// merged across live shards): does any manager behind this executor hold the
// content digest in its interchange's warm-digest record.
type digestHolder interface{ HoldsDigest(digest string) bool }

// loadReporter is a candidate that reports its own load: the DFK's view of
// an executor, which adds backlog the executor cannot see yet to its signals.
type loadReporter interface{ Load() Load }

// LoadOf samples an executor's live load signals. A sharded executor reports
// one merged view — its client-side outstanding count, and the workers and
// digest holdings of its live interchange shards — so policies see one
// logical executor regardless of how many brokers serve it. A candidate that
// reports its own load (the DFK's view of an executor and its lane) returns
// that.
func LoadOf(ex executor.Executor) Load {
	if r, ok := ex.(loadReporter); ok {
		return r.Load()
	}
	return NewProbe(ex).Load()
}

// Probe reads one executor's live load signals. Binding the executor's
// digest probe allocates, so a caller that samples the same executor for
// every task makes its Probe once; Load then allocates nothing.
type Probe struct {
	ex    executor.Executor
	holds func(digest string) bool
}

// NewProbe binds ex's load signals.
func NewProbe(ex executor.Executor) Probe {
	p := Probe{ex: ex}
	if dh, ok := ex.(digestHolder); ok {
		p.holds = dh.HoldsDigest
	}
	return p
}

// Load samples the executor's signals now.
func (p Probe) Load() Load {
	l := Load{Label: p.ex.Label(), Outstanding: p.ex.Outstanding(), HasDigest: p.holds}
	switch t := p.ex.(type) {
	case executor.Scalable:
		l.Workers = t.ConnectedWorkers()
	case workerCounter:
		l.Workers = t.Workers()
	}
	return l
}

// DigestPicker is an optional Scheduler extension for data-aware policies.
// When a scheduler implements it, the DFK calls PickDigest
// instead of Pick, passing the ready task's input-content digest (the
// encode-once Payload.ArgsHash — the same value the interchange records for
// the tasks each manager returned), so the policy can route the task toward an
// executor that already holds its inputs. digest may be "" when no payload
// was encoded (e.g. memoization off); implementations must then behave like
// Pick. The same candidate-set rules as Pick apply — candidates have
// already been filtered by hints and by the health plane's breakers, so a
// digest holder that is breaker-open is simply absent from the set.
type DigestPicker interface {
	PickDigest(candidates []executor.Executor, digest string) (executor.Executor, error)
}

// Random is the paper-faithful default: uniform among eligible executors
// ("an executor is picked at random", §4.1). Seedable for deterministic
// tests.
type Random struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewRandom returns a Random scheduler; seed 0 derives a random seed.
func NewRandom(seed int64) *Random {
	var rng *rand.Rand
	if seed == 0 {
		rng = rand.New(rand.NewSource(rand.Int63()))
	} else {
		rng = rand.New(rand.NewSource(seed))
	}
	return &Random{rng: rng}
}

// Name implements Scheduler.
func (r *Random) Name() string { return "random" }

// Pick implements Scheduler. A lone candidate is picked without drawing a
// number.
func (r *Random) Pick(candidates []executor.Executor) (executor.Executor, error) {
	switch len(candidates) {
	case 0:
		return nil, ErrNoExecutors
	case 1:
		return candidates[0], nil
	}
	r.mu.Lock()
	i := r.rng.Intn(len(candidates))
	r.mu.Unlock()
	return candidates[i], nil
}

// RoundRobin cycles deterministically through the eligible set. Note the
// cursor is global, not per-candidate-set: with hint-pinned apps in the mix
// the rotation is fair overall but not per app.
type RoundRobin struct {
	next atomic.Uint64
}

// NewRoundRobin returns a RoundRobin scheduler.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Scheduler.
func (r *RoundRobin) Name() string { return "round-robin" }

// Pick implements Scheduler.
func (r *RoundRobin) Pick(candidates []executor.Executor) (executor.Executor, error) {
	if len(candidates) == 0 {
		return nil, ErrNoExecutors
	}
	n := r.next.Add(1) - 1
	return candidates[n%uint64(len(candidates))], nil
}

// LeastOutstanding is the capacity-aware policy: it routes each task to the
// executor with the lowest outstanding-per-worker load, so a large idle
// pool absorbs a burst instead of the random policy's even spray. Ties are
// broken by raw outstanding count, then by candidate order (deterministic).
type LeastOutstanding struct{}

// NewLeastOutstanding returns a LeastOutstanding scheduler.
func NewLeastOutstanding() *LeastOutstanding { return &LeastOutstanding{} }

// Name implements Scheduler.
func (*LeastOutstanding) Name() string { return "least-outstanding" }

// Pick implements Scheduler.
func (*LeastOutstanding) Pick(candidates []executor.Executor) (executor.Executor, error) {
	if len(candidates) == 0 {
		return nil, ErrNoExecutors
	}
	best := 0
	bestLoad := LoadOf(candidates[0])
	for i := 1; i < len(candidates); i++ {
		l := LoadOf(candidates[i])
		if l.PerWorker() < bestLoad.PerWorker() ||
			(l.PerWorker() == bestLoad.PerWorker() && l.Outstanding < bestLoad.Outstanding) {
			best, bestLoad = i, l
		}
	}
	return candidates[best], nil
}

// Locality is the data-aware policy (the Dask/Ray data-locality story
// fused with Parsl memoization): route a task to an
// executor whose managers hold its input digest — the bytes are
// already warm there — and fall back to least-outstanding when no
// candidate holds them. Among multiple holders the least loaded wins, so
// locality never turns into a hotspot pile-up. Holder selection respects
// the surrounding machinery by construction: breaker-open executors were
// filtered from the candidate set before Pick, a sharded executor reports
// only the holdings of its live shards (so one whose shards are all dead
// holds nothing), and the capacity-veto spill rules inside a sharded
// executor still apply after the pick (routing to the executor is a
// preference, not a placement guarantee). A stale holding (the holding
// manager left between the probe and the dispatch) just means the task runs
// cold wherever the interchange places it — never an error.
type Locality struct {
	fallback LeastOutstanding
	hits     atomic.Int64
	misses   atomic.Int64
}

// NewLocality returns a Locality scheduler.
func NewLocality() *Locality { return &Locality{} }

// Name implements Scheduler.
func (*Locality) Name() string { return "locality" }

// Pick implements Scheduler: without a digest there is no locality signal,
// so the fallback applies directly.
func (p *Locality) Pick(candidates []executor.Executor) (executor.Executor, error) {
	return p.fallback.Pick(candidates)
}

// PickDigest implements DigestPicker.
func (p *Locality) PickDigest(candidates []executor.Executor, digest string) (executor.Executor, error) {
	if len(candidates) == 0 {
		return nil, ErrNoExecutors
	}
	if digest != "" {
		best := -1
		var bestLoad Load
		for i, c := range candidates {
			l := LoadOf(c)
			if l.HasDigest == nil || !l.HasDigest(digest) {
				continue
			}
			if best < 0 || l.PerWorker() < bestLoad.PerWorker() ||
				(l.PerWorker() == bestLoad.PerWorker() && l.Outstanding < bestLoad.Outstanding) {
				best, bestLoad = i, l
			}
		}
		if best >= 0 {
			p.hits.Add(1)
			return candidates[best], nil
		}
	}
	p.misses.Add(1)
	return p.fallback.Pick(candidates)
}

// Stats reports how many picks were routed by digest locality (hits) vs
// fell back to least-outstanding (misses).
func (p *Locality) Stats() (hits, misses int64) {
	return p.hits.Load(), p.misses.Load()
}

// ByName constructs the policy named in config: "random" (default when name
// is empty), "round-robin", "least-outstanding", or "locality". seed only
// affects "random".
func ByName(name string, seed int64) (Scheduler, error) {
	switch name {
	case "", "random":
		return NewRandom(seed), nil
	case "round-robin":
		return NewRoundRobin(), nil
	case "least-outstanding":
		return NewLeastOutstanding(), nil
	case "locality":
		return NewLocality(), nil
	default:
		return nil, fmt.Errorf("sched: unknown policy %q", name)
	}
}
