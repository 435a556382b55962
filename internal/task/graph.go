package task

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// NumShards is the fixed shard count of the graph. Power of two so the
// shard index is a mask of the task id; ids are dense (NextID), so the
// round-robin id→shard mapping keeps shards balanced.
const NumShards = 1 << shardBits

// Graph is the dynamic task dependency DAG held by the DataFlowKernel
// (§3.4). Nodes are task records; a directed edge u→v means v consumes u's
// future. The graph is dynamic: nodes are added as the program submits apps,
// and execution begins as soon as the first ready task exists. The DFK keeps
// no edge here: a waiting task's record is the DoneHook of each of its input
// futures, so an edge is one registration in the input, and the task counts
// its unresolved inputs down on its own record (Record.FutureDone).
//
// State is sharded N ways by task id with per-shard locks, so concurrent
// submissions from many goroutines do not contend on a single mutex. Nothing
// is hashed: ids are dense integers the graph issues itself (NextID), so a
// shard finds a node by indexing a paged window with id >> shardBits, and a
// node's two edge lists hang off its Record, guarded by its shard's lock.
type Graph struct {
	nextID atomic.Int64
	shards [NumShards]graphShard
}

// Window geometry. There are 1 << shardBits = 32 shards, and id >> shardBits
// numbers a shard's own ids 0, 1, 2… A page is 4 KiB of slots and spans 16 384
// consecutive ids; a shard keeps at most maxFreePages emptied pages for reuse
// (a 100 k-node burst drains and refills without allocating).
const (
	shardBits    = 5
	pageBits     = 9
	pageSize     = 1 << pageBits
	maxFreePages = 8
)

// pageOf and slotOf split an id into its shard's page number (negative for a
// negative id, so no window holds it) and the slot in that page.
func pageOf(id int64) int64 { return id >> (shardBits + pageBits) }
func slotOf(id int64) int   { return int(id>>shardBits) & (pageSize - 1) }

// page is one run of a shard's window; slots[k] is nil where the id is not
// resident (not added yet, retired, or drawn by NextID and never added).
type page struct {
	live  int // occupied slots
	slots [pageSize]*Record
}

// graphShard holds the nodes whose id maps to this shard in a window of pages:
// dir[i] is page base+i, nil where no node of that page is resident; dir is
// empty or dir[0] != nil. Life cycle of a page: Add takes one (off the free
// list, else from the heap) for the first node of its span; the Retire that
// empties it puts it back, and if it was the head page the directory slides
// past it and the empty pages behind it. So the directory spans from the
// oldest resident node to the newest page touched: a straggler pins its own
// page plus 8 B per page of span behind it, and a shard with no nodes has an
// empty directory (which keeps its storage, as the free list keeps pages).
// The lock is a plain Mutex: a critical section is a few loads and stores and
// no hot path only reads.
type graphShard struct {
	mu    sync.Mutex
	base  int64
	dir   []*page
	live  int // resident nodes
	free  [maxFreePages]*page
	nfree int

	// Cumulative counts of records pruned from this shard, by terminal
	// state, so state tallies (CountByState, Summary) stay correct after
	// the records themselves have been recycled.
	prunedDone     int64
	prunedFailed   int64
	prunedMemoized int64
}

// edgeLists are a node's adjacency lists (deps = ids it waits on, dependents =
// ids waiting on it), kept behind Record.edges and guarded by the lock of the
// shard holding the record, not by the record's mutex. Retiring the node
// truncates them; their storage stays with the record for its next occupant.
// Each list starts in one word of first, so a node with one parent and one
// child costs one allocation and one cache line. AddEdge is their only
// writer, and the DFK never calls it.
type edgeLists struct {
	deps, dependents []int64
	first            [2]int64
}

// edgeLists returns r's lists, allocating them on a record's first edge.
func (r *Record) edgeLists() *edgeLists {
	if r.edges == nil {
		e := new(edgeLists)
		e.deps, e.dependents = e.first[0:0:1], e.first[1:1:2]
		r.edges = e
	}
	return r.edges
}

// NewGraph returns an empty task graph.
func NewGraph() *Graph { return &Graph{} }

func (g *Graph) shard(id int64) *graphShard {
	return &g.shards[uint64(id)&(NumShards-1)]
}

// locate returns the page holding id and id's slot in it; the page is nil when
// id lies outside the directory or on an empty page. Called with s.mu held.
func (s *graphShard) locate(id int64) (*page, int) {
	if i := pageOf(id) - s.base; uint64(i) < uint64(len(s.dir)) {
		return s.dir[i], slotOf(id)
	}
	return nil, 0
}

// get returns the resident record for id, or nil. Called with s.mu held.
func (s *graphShard) get(id int64) *Record {
	if p, k := s.locate(id); p != nil {
		return p.slots[k]
	}
	return nil
}

// each calls fn on every resident record. Called with s.mu held.
func (s *graphShard) each(fn func(*Record)) {
	for _, p := range s.dir {
		if p == nil {
			continue
		}
		for _, r := range &p.slots {
			if r != nil {
				fn(r)
			}
		}
	}
}

// sweep calls fn on every shard in turn, under that shard's lock.
func (g *Graph) sweep(fn func(i int, s *graphShard)) {
	for i := range g.shards {
		s := &g.shards[i]
		s.mu.Lock()
		fn(i, s)
		s.mu.Unlock()
	}
}

// NextID reserves and returns a fresh task id.
func (g *Graph) NextID() int64 {
	return g.nextID.Add(1) - 1
}

// Add inserts a record. The id must come from this graph's NextID: the window
// indexes by id, so a shard's directory costs 8 B per 16 384 ids between its
// oldest resident node and its newest. Ids may be added in any order
// (goroutines race from NextID to Add) or never (retry wire ids). Add panics
// on a negative id, which the window cannot index, and on an id already
// present — either means engine corruption.
func (g *Graph) Add(r *Record) {
	if r.ID < 0 {
		panic(fmt.Sprintf("task graph: negative id %d", r.ID))
	}
	s := g.shard(r.ID)
	s.mu.Lock()
	defer s.mu.Unlock()
	pn := pageOf(r.ID)
	if len(s.dir) == 0 {
		s.base = pn
	}
	if pn < s.base {
		// Reserved before the head slid on, added only now: grow backwards.
		grown := make([]*page, int(s.base-pn)+len(s.dir))
		copy(grown[s.base-pn:], s.dir)
		s.dir, s.base = grown, pn
	}
	for int64(len(s.dir)) <= pn-s.base {
		s.dir = append(s.dir, nil)
	}
	p := s.dir[pn-s.base]
	if p == nil {
		if s.nfree > 0 {
			s.nfree--
			p, s.free[s.nfree] = s.free[s.nfree], nil
		} else {
			p = new(page)
		}
		s.dir[pn-s.base] = p
	}
	slot := &p.slots[slotOf(r.ID)]
	if *slot != nil {
		panic(fmt.Sprintf("task graph: duplicate id %d", r.ID))
	}
	*slot = r
	p.live++
	s.live++
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
	rf, rt := sf.get(from), st.get(to)
	if rf == nil {
		return fmt.Errorf("task graph: edge from unknown task %d", from)
	}
	if rt == nil {
		return fmt.Errorf("task graph: edge to unknown task %d", to)
	}
	et, ef := rt.edgeLists(), rf.edgeLists()
	et.deps = append(et.deps, from)
	ef.dependents = append(ef.dependents, to)
	return nil
}

// Retire prunes a terminal record whose state the caller has not already
// read; see RetireAs.
func (g *Graph) Retire(r *Record) int64 { return g.RetireAs(r, r.State()) }

// RetireAs prunes a record that concluded in state st (the caller's Finish
// decided it, so the record is not locked again to ask) from its shard —
// emptying its slot and its edge lists, folding st into the shard's pruned
// tallies, recycling its page if that was the page's last node — and then
// marks the record itself retired so it can be recycled once the last
// in-flight hold drops (see Record.Enter/Exit). After RetireAs,
// Get(id) returns nil; the task's result lives on in its AppFuture, which
// dependents and the submitting program hold directly. Returns the shard's
// cumulative pruned count, so callers can rate-limit reclamation telemetry.
func (g *Graph) RetireAs(r *Record, st State) int64 {
	s := g.shard(r.ID)
	s.mu.Lock()
	if p, k := s.locate(r.ID); p != nil && p.slots[k] == r {
		p.slots[k] = nil
		s.live--
		if e := r.edges; e != nil {
			e.deps, e.dependents = e.deps[:0], e.dependents[:0]
		}
		switch st {
		case Done:
			s.prunedDone++
		case Failed:
			s.prunedFailed++
		case Memoized:
			s.prunedMemoized++
		}
		if p.live--; p.live == 0 {
			s.releasePage(pageOf(r.ID) - s.base)
		}
	}
	pruned := s.prunedDone + s.prunedFailed + s.prunedMemoized
	s.mu.Unlock()
	r.Retire()
	return pruned
}

// releasePage takes the emptied page at dir[i] out of the window, keeps it if
// the free list has room, and restores the head invariant. The directory is
// copied down, not resliced, so that it keeps its storage: a shard whose live
// set keeps falling to zero would otherwise regrow it for every task.
func (s *graphShard) releasePage(i int64) {
	if s.nfree < maxFreePages {
		s.free[s.nfree] = s.dir[i]
		s.nfree++
	}
	s.dir[i] = nil
	if i != 0 {
		return
	}
	k := 1
	for k < len(s.dir) && s.dir[k] == nil {
		k++
	}
	n := copy(s.dir, s.dir[k:])
	clear(s.dir[n:])
	s.dir = s.dir[:n]
	s.base += int64(k)
}

// LiveNodes returns the number of records currently resident in the graph
// shards — the live frontier plus any terminal records not yet pruned.
func (g *Graph) LiveNodes() int { return g.Len() }

// RecycledNodes returns the cumulative number of records pruned from the
// graph since creation. LiveNodes()+RecycledNodes() equals the total number
// of tasks ever added (when record retention is off).
func (g *Graph) RecycledNodes() (n int64) {
	g.sweep(func(_ int, s *graphShard) { n += s.prunedDone + s.prunedFailed + s.prunedMemoized })
	return n
}

// Shard returns the shard index for a task id.
func Shard(id int64) int { return int(uint64(id) & (NumShards - 1)) }

// Len returns the number of tasks.
func (g *Graph) Len() (n int) {
	g.sweep(func(_ int, s *graphShard) { n += s.live })
	return n
}

// EdgeCount returns the number of dependency edges.
func (g *Graph) EdgeCount() (n int) {
	g.sweep(func(_ int, s *graphShard) {
		s.each(func(r *Record) {
			if r.edges != nil {
				n += len(r.edges.deps)
			}
		})
	})
	return n
}

// Deps returns a copy of the ids task id depends on (empty when id is not
// resident).
func (g *Graph) Deps(id int64) []int64 {
	deps, _ := g.edgesOf(id)
	return deps
}

// Dependents returns a copy of the ids that depend on task id (empty when id
// is not resident).
func (g *Graph) Dependents(id int64) []int64 {
	_, dependents := g.edgesOf(id)
	return dependents
}

// edgesOf copies both of id's edge lists.
func (g *Graph) edgesOf(id int64) (deps, dependents []int64) {
	s := g.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	deps, dependents = []int64{}, []int64{}
	if r := s.get(id); r != nil && r.edges != nil {
		deps, dependents = append(deps, r.edges.deps...), append(dependents, r.edges.dependents...)
	}
	return deps, dependents
}

// Tasks returns a snapshot of all records (unordered). The snapshot is
// per-shard consistent, not globally atomic: records added concurrently may
// or may not appear.
func (g *Graph) Tasks() []*Record {
	var out []*Record
	g.sweep(func(_ int, s *graphShard) {
		if out == nil {
			// Dense ids spread uniformly; the first shard's size estimates
			// the total without a second full lock sweep.
			out = make([]*Record, 0, s.live*NumShards)
		}
		s.each(func(r *Record) { out = append(out, r) })
	})
	return out
}

// CountByState tallies tasks per state — both resident records and records
// already pruned by Retire (folded in from the shard tallies) — so summaries
// over a reclaiming graph still account for every task. Used by the
// elasticity strategy to measure workload pressure and by monitoring.
func (g *Graph) CountByState() map[State]int {
	counts := make(map[State]int)
	g.sweep(func(_ int, s *graphShard) {
		s.each(func(r *Record) { counts[r.State()]++ })
		counts[Done] += int(s.prunedDone)
		counts[Failed] += int(s.prunedFailed)
		counts[Memoized] += int(s.prunedMemoized)
	})
	for st, n := range counts {
		if n == 0 {
			delete(counts, st)
		}
	}
	return counts
}

// Outstanding returns the number of tasks not yet in a terminal state.
func (g *Graph) Outstanding() (n int) {
	g.sweep(func(_ int, s *graphShard) {
		s.each(func(r *Record) {
			if !r.State().Terminal() {
				n++
			}
		})
	})
	return n
}
