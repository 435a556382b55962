package task

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// NumShards is the fixed shard count of the graph. Power of two so the
// shard index is a mask of the task id; ids are dense (NextID), so the
// round-robin id→shard mapping keeps shards balanced.
const NumShards = 32

// Graph is the dynamic task dependency DAG held by the DataFlowKernel
// (§3.4). Nodes are task records; a directed edge u→v means v consumes u's
// future. The graph is dynamic: nodes and edges are added as the program
// submits apps, and execution begins as soon as the first ready task exists.
//
// State is sharded N ways by task id with per-shard locks, so concurrent
// submissions from many goroutines do not contend on a single mutex: a
// node's record, its dependency list, and its dependents list all live in
// shard(id), and only AddEdge ever takes two shard locks (in index order).
type Graph struct {
	nextID atomic.Int64
	shards [NumShards]graphShard
}

// graphShard holds the nodes whose id maps to this shard, plus the edge
// lists keyed by those ids: deps[v] = ids v waits on; dependents[u] = ids
// waiting on u.
type graphShard struct {
	mu         sync.RWMutex
	tasks      map[int64]*Record
	deps       map[int64][]int64
	dependents map[int64][]int64

	// Cumulative counts of records pruned from this shard, by terminal
	// state, so state tallies (CountByState, Summary) stay correct after
	// the records themselves have been recycled.
	prunedDone     int64
	prunedFailed   int64
	prunedMemoized int64

	// free is a bounded freelist of edge-list slices recovered from pruned
	// nodes; AddEdge pops it before allocating. Slices recycle within their
	// shard, so no cross-shard lock traffic.
	free [][]int64
}

// maxFreeSlices bounds each shard's edge-slice freelist; beyond this the
// slices go back to the garbage collector.
const maxFreeSlices = 128

// getFreeLocked pops a recycled edge slice (len 0) or returns nil.
func (s *graphShard) getFreeLocked() []int64 {
	if n := len(s.free); n > 0 {
		sl := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return sl
	}
	return nil
}

// putFreeLocked returns an edge slice to the freelist if there is room.
func (s *graphShard) putFreeLocked(sl []int64) {
	if cap(sl) > 0 && len(s.free) < maxFreeSlices {
		s.free = append(s.free, sl[:0])
	}
}

// NewGraph returns an empty task graph.
func NewGraph() *Graph {
	g := &Graph{}
	for i := range g.shards {
		s := &g.shards[i]
		s.tasks = make(map[int64]*Record)
		s.deps = make(map[int64][]int64)
		s.dependents = make(map[int64][]int64)
	}
	return g
}

func (g *Graph) shard(id int64) *graphShard {
	return &g.shards[uint64(id)&(NumShards-1)]
}

// NextID reserves and returns a fresh task id.
func (g *Graph) NextID() int64 {
	return g.nextID.Add(1) - 1
}

// Add inserts a record. It panics if the id is already present — ids are
// reserved through NextID, so a duplicate means engine corruption.
func (g *Graph) Add(r *Record) {
	s := g.shard(r.ID)
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.tasks)
	s.tasks[r.ID] = r
	if len(s.tasks) == n { // one map operation instead of lookup + insert
		panic(fmt.Sprintf("task graph: duplicate id %d", r.ID))
	}
}

// AddEdge records that task to depends on task from. Unknown endpoints are
// rejected. Because tasks can only depend on futures that already exist,
// cycles cannot be constructed, which keeps the graph a DAG by construction;
// AddEdge still guards against from==to. Both shard locks are held together
// (ascending index order, to prevent lock-order inversion) so the
// deps/dependents views stay mirror images at every instant.
func (g *Graph) AddEdge(from, to int64) error {
	if from == to {
		return fmt.Errorf("task graph: self edge on %d", from)
	}
	sf, st := g.shard(from), g.shard(to)
	if sf == st {
		sf.mu.Lock()
		defer sf.mu.Unlock()
	} else {
		first, second := sf, st
		if uint64(from)&(NumShards-1) > uint64(to)&(NumShards-1) {
			first, second = st, sf
		}
		first.mu.Lock()
		defer first.mu.Unlock()
		second.mu.Lock()
		defer second.mu.Unlock()
	}
	if _, ok := sf.tasks[from]; !ok {
		return fmt.Errorf("task graph: edge from unknown task %d", from)
	}
	if _, ok := st.tasks[to]; !ok {
		return fmt.Errorf("task graph: edge to unknown task %d", to)
	}
	dl, ok := st.deps[to]
	if !ok {
		dl = st.getFreeLocked()
	}
	st.deps[to] = append(dl, from)
	rl, ok := sf.dependents[from]
	if !ok {
		rl = sf.getFreeLocked()
	}
	sf.dependents[from] = append(rl, to)
	return nil
}

// Retire prunes a terminal record whose state the caller has not already
// read; see RetireAs.
func (g *Graph) Retire(r *Record) int64 { return g.RetireAs(r, r.State()) }

// RetireAs prunes a record that concluded in state st (the caller's Finish
// decided it, so the record is not locked again to ask) from its shard —
// removing the node and its edge lists, folding st into the shard's pruned
// tallies — and then marks the record itself retired so it can be recycled
// once the last in-flight hold drops (see Record.Enter/Exit). After RetireAs,
// Get(id) returns nil; the task's result lives on in its AppFuture, which
// dependents and the submitting program hold directly. Returns the shard's
// cumulative pruned count, so callers can rate-limit reclamation telemetry.
func (g *Graph) RetireAs(r *Record, st State) int64 {
	s := g.shard(r.ID)
	s.mu.Lock()
	n := len(s.tasks)
	delete(s.tasks, r.ID)
	if len(s.tasks) < n { // one map operation instead of lookup + delete
		if d, ok := s.deps[r.ID]; ok {
			delete(s.deps, r.ID)
			s.putFreeLocked(d)
		}
		if d, ok := s.dependents[r.ID]; ok {
			delete(s.dependents, r.ID)
			s.putFreeLocked(d)
		}
		switch st {
		case Done:
			s.prunedDone++
		case Failed:
			s.prunedFailed++
		case Memoized:
			s.prunedMemoized++
		}
	}
	pruned := s.prunedDone + s.prunedFailed + s.prunedMemoized
	s.mu.Unlock()
	r.Retire()
	return pruned
}

// LiveNodes returns the number of records currently resident in the graph
// shards — the live frontier plus any terminal records not yet pruned.
func (g *Graph) LiveNodes() int { return g.Len() }

// RecycledNodes returns the cumulative number of records pruned from the
// graph since creation. LiveNodes()+RecycledNodes() equals the total number
// of tasks ever added (when record retention is off).
func (g *Graph) RecycledNodes() int64 {
	var n int64
	for i := range g.shards {
		s := &g.shards[i]
		s.mu.RLock()
		n += s.prunedDone + s.prunedFailed + s.prunedMemoized
		s.mu.RUnlock()
	}
	return n
}

// ShardPruned returns the cumulative pruned count for one shard (monitoring).
func (g *Graph) ShardPruned(shard int) int64 {
	s := &g.shards[shard&(NumShards-1)]
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.prunedDone + s.prunedFailed + s.prunedMemoized
}

// Shard returns the shard index for a task id.
func Shard(id int64) int { return int(uint64(id) & (NumShards - 1)) }

// Get returns the record for id, or nil.
func (g *Graph) Get(id int64) *Record {
	s := g.shard(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tasks[id]
}

// Len returns the number of tasks.
func (g *Graph) Len() int {
	n := 0
	for i := range g.shards {
		s := &g.shards[i]
		s.mu.RLock()
		n += len(s.tasks)
		s.mu.RUnlock()
	}
	return n
}

// ShardCounts returns the number of tasks held by each shard; the sum
// always equals Len. Exposed for balance checks in tests and monitoring.
func (g *Graph) ShardCounts() []int {
	out := make([]int, NumShards)
	for i := range g.shards {
		s := &g.shards[i]
		s.mu.RLock()
		out[i] = len(s.tasks)
		s.mu.RUnlock()
	}
	return out
}

// EdgeCount returns the number of dependency edges.
func (g *Graph) EdgeCount() int {
	n := 0
	for i := range g.shards {
		s := &g.shards[i]
		s.mu.RLock()
		for _, d := range s.deps {
			n += len(d)
		}
		s.mu.RUnlock()
	}
	return n
}

// Deps returns a copy of the ids task id depends on.
func (g *Graph) Deps(id int64) []int64 {
	s := g.shard(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]int64, len(s.deps[id]))
	copy(out, s.deps[id])
	return out
}

// Dependents returns a copy of the ids that depend on task id.
func (g *Graph) Dependents(id int64) []int64 {
	s := g.shard(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]int64, len(s.dependents[id]))
	copy(out, s.dependents[id])
	return out
}

// Tasks returns a snapshot of all records (unordered). The snapshot is
// per-shard consistent, not globally atomic: records added concurrently may
// or may not appear.
func (g *Graph) Tasks() []*Record {
	var out []*Record
	for i := range g.shards {
		s := &g.shards[i]
		s.mu.RLock()
		if out == nil {
			// Dense ids spread uniformly; the first shard's size estimates
			// the total without a second full lock sweep.
			out = make([]*Record, 0, len(s.tasks)*NumShards)
		}
		for _, r := range s.tasks {
			out = append(out, r)
		}
		s.mu.RUnlock()
	}
	return out
}

// CountByState tallies tasks per state — both resident records and records
// already pruned by Retire (folded in from the shard tallies) — so summaries
// over a reclaiming graph still account for every task. Used by the
// elasticity strategy to measure workload pressure and by monitoring.
func (g *Graph) CountByState() map[State]int {
	counts := make(map[State]int)
	for i := range g.shards {
		s := &g.shards[i]
		s.mu.RLock()
		for _, r := range s.tasks {
			counts[r.State()]++
		}
		counts[Done] += int(s.prunedDone)
		counts[Failed] += int(s.prunedFailed)
		counts[Memoized] += int(s.prunedMemoized)
		s.mu.RUnlock()
	}
	for st, n := range counts {
		if n == 0 {
			delete(counts, st)
		}
	}
	return counts
}

// Outstanding returns the number of tasks not yet in a terminal state.
func (g *Graph) Outstanding() int {
	n := 0
	for i := range g.shards {
		s := &g.shards[i]
		s.mu.RLock()
		for _, r := range s.tasks {
			if !r.State().Terminal() {
				n++
			}
		}
		s.mu.RUnlock()
	}
	return n
}
