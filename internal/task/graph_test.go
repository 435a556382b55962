package task

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// get returns the resident record for id, or nil.
func get(g *Graph, id int64) *Record {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.live[id]
}

// liveCount returns the number of resident records.
func liveCount(g *Graph) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.live)
}

func TestGraphAddAndGet(t *testing.T) {
	g := NewGraph()
	id := g.NextID()
	r := NewRecord(id, "a", nil, nil)
	g.Add(r)
	if got := get(g, id); got != r {
		t.Fatal("Get returned wrong record")
	}
	if get(g, 999) != nil {
		t.Fatal("Get(unknown) != nil")
	}
	if liveCount(g) != 1 {
		t.Fatalf("Len = %d", liveCount(g))
	}
	g.Retire(r)
	if get(g, id) != nil || liveCount(g) != 0 {
		t.Fatalf("after Retire: Get = %v, Len = %d", get(g, id), liveCount(g))
	}
}

func TestGraphNextIDUnique(t *testing.T) {
	g := NewGraph()
	seen := make(map[int64]bool)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 200; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := g.NextID()
			mu.Lock()
			if seen[id] {
				t.Errorf("duplicate id %d", id)
			}
			seen[id] = true
			mu.Unlock()
		}()
	}
	wg.Wait()
}

func TestGraphDuplicateAddPanics(t *testing.T) {
	g := NewGraph()
	r := NewRecord(1, "a", nil, nil)
	g.Add(r)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Add did not panic")
		}
	}()
	g.Add(NewRecord(1, "b", nil, nil))
}

// A fan-in: both parents may be named by the child while all three are
// resident, and not once a parent is retired.
func TestGraphEdges(t *testing.T) {
	g := NewGraph()
	a, b, c := NewRecord(1, "a", nil, nil), NewRecord(2, "b", nil, nil), NewRecord(3, "c", nil, nil)
	g.Add(a)
	g.Add(b)
	g.Add(c)
	if err := g.AddEdge(1, 3); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	g.Retire(a)
	if err := g.AddEdge(1, 3); err == nil {
		t.Fatal("edge from a retired task allowed")
	}
}

func TestGraphEdgeValidation(t *testing.T) {
	g := NewGraph()
	g.Add(NewRecord(1, "a", nil, nil))
	if err := g.AddEdge(1, 1); err == nil {
		t.Fatal("self edge allowed")
	}
	if err := g.AddEdge(1, 99); err == nil {
		t.Fatal("edge to unknown allowed")
	}
	if err := g.AddEdge(99, 1); err == nil {
		t.Fatal("edge from unknown allowed")
	}
}

func TestGraphTasksSnapshot(t *testing.T) {
	g := NewGraph()
	for i := int64(0); i < 10; i++ {
		g.Add(NewRecord(i, "a", nil, nil))
	}
	if liveCount(g) != 10 {
		t.Fatalf("table size %d", liveCount(g))
	}
}

// TestGraphConcurrentHammer is eight submitters that add a node, link it to
// its parents one AddEdge each (their own earlier nodes and whatever other
// goroutines published, which may retire meanwhile) and retire their oldest,
// on pooled records that other submitters reuse under new ids. At quiescence
// the table must hold exactly the records not yet retired.
func TestGraphConcurrentHammer(t *testing.T) {
	const workers, steps, keep = 8, 4000, 48
	g := NewGraph()
	var recent [64]atomic.Int64 // ids other goroutines may name as parents
	survivors := make([][]*Record, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			var own []*Record
			for i := 0; i < steps; i++ {
				if rng.Intn(8) == 0 {
					g.NextID() // a hole
				}
				r := NewRecord(g.NextID(), "n", nil, nil)
				g.Add(r)
				for j := rng.Intn(20); j > 0; j-- {
					_ = g.AddEdge(recent[rng.Intn(len(recent))].Load(), r.ID) // a parent may have retired meanwhile
				}
				if len(own) > 0 {
					if err := g.AddEdge(own[rng.Intn(len(own))].ID, r.ID); err != nil {
						t.Error(err) // both ends are this goroutine's, and resident
					}
				}
				recent[rng.Intn(len(recent))].Store(r.ID)
				own = append(own, r)
				for len(own) > keep {
					k := 0
					if rng.Intn(4) == 0 {
						k = rng.Intn(len(own))
					}
					g.Retire(own[k])
					own = slices.Delete(own, k, k+1)
				}
			}
			survivors[w] = own
		}(w)
	}
	wg.Wait()

	if liveCount(g) != workers*keep {
		t.Fatalf("table holds %d records, want %d", liveCount(g), workers*keep)
	}
	for _, own := range survivors {
		for _, r := range own {
			if get(g, r.ID) != r {
				t.Fatalf("record %d not yet retired is missing from the table", r.ID)
			}
			g.Retire(r)
		}
	}
	if liveCount(g) != 0 {
		t.Fatalf("table holds %d records after the last Retire", liveCount(g))
	}
}
