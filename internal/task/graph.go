package task

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// NumShards is the shard count of the DFK's terminal tallies. Power of two so
// the shard index is a mask of the task id; ids are dense, so the round-robin
// id→shard mapping keeps shards balanced.
const NumShards = 32

// Shard returns the shard index for a task id.
func Shard(id int64) int { return int(uint64(id) & (NumShards - 1)) }

// Graph is a table of live task records behind one mutex. The DataFlowKernel
// keeps no such table: a task is reachable from its future, a waiting task's
// record is the DoneHook of each of its input futures, so an edge is one
// registration in the input (Record.FutureDone), and the DFK counts tasks
// rather than holding them. Graph is left for the benchmark's task.* layer
// metrics.
type Graph struct {
	nextID atomic.Int64

	mu   sync.Mutex
	live map[int64]*Record
}

// NewGraph returns an empty task graph.
func NewGraph() *Graph { return &Graph{live: make(map[int64]*Record)} }

// NextID reserves and returns a fresh task id.
func (g *Graph) NextID() int64 {
	return g.nextID.Add(1) - 1
}

// Add inserts a record. It panics on an id already present, which means
// engine corruption.
func (g *Graph) Add(r *Record) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.live[r.ID] != nil {
		panic(fmt.Sprintf("task graph: duplicate id %d", r.ID))
	}
	g.live[r.ID] = r
}

// AddEdge checks that task to may depend on task from: both must be resident
// and distinct. Because tasks can only depend on futures that already exist,
// cycles cannot be constructed. The edge itself is not stored: the input's
// registration list holds it, and nothing reads an edge list.
func (g *Graph) AddEdge(from, to int64) error {
	if from == to {
		return fmt.Errorf("task graph: self edge on %d", from)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.live[from] == nil {
		return fmt.Errorf("task graph: edge from unknown task %d", from)
	}
	if g.live[to] == nil {
		return fmt.Errorf("task graph: edge to unknown task %d", to)
	}
	return nil
}

// Retire takes a concluded record out of the table and then retires the
// record itself, so it is recycled once the last in-flight hold drops (see
// Record.Enter/Exit). The task's result lives on in its AppFuture, which
// dependents and the submitting program hold directly.
func (g *Graph) Retire(r *Record) {
	g.mu.Lock()
	if g.live[r.ID] == r {
		delete(g.live, r.ID)
	}
	g.mu.Unlock()
	r.Retire()
}
