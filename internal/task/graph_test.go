package task

import (
	"sync"
	"testing"
	"testing/quick"
)

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
	deps := g.Deps(3)
	if len(deps) != 2 {
		t.Fatalf("deps = %v", deps)
	}
	if got := g.Dependents(1); len(got) != 1 || got[0] != 3 {
		t.Fatalf("dependents(1) = %v", got)
	}
	if g.EdgeCount() != 2 {
		t.Fatalf("edges = %d", g.EdgeCount())
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
	if len(tasks(g)) != 10 {
		t.Fatalf("snapshot size %d", len(tasks(g)))
	}
}

func TestGraphShardCountsSumToLen(t *testing.T) {
	g := NewGraph()
	const n = 500
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < n/8; j++ {
				g.Add(NewRecord(g.NextID(), "a", nil, nil))
			}
		}()
	}
	wg.Wait()
	counts := shardCounts(g)
	if len(counts) != NumShards {
		t.Fatalf("ShardCounts len = %d, want %d", len(counts), NumShards)
	}
	sum := 0
	for _, c := range counts {
		sum += c
	}
	if sum != liveCount(g) || sum != (n/8)*8 {
		t.Fatalf("shard counts sum %d, Len %d", sum, liveCount(g))
	}
	// Dense ids over a power-of-two mask: shards must be near-uniform.
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("shard %d empty after %d dense inserts", i, sum)
		}
	}
}

func TestGraphCrossShardEdges(t *testing.T) {
	g := NewGraph()
	// Ids 0 and 1 land in different shards; 0 and NumShards in the same one.
	for _, id := range []int64{0, 1, NumShards} {
		g.Add(NewRecord(id, "a", nil, nil))
	}
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(NumShards, 0); err != nil {
		t.Fatal(err)
	}
	if got := g.Deps(0); len(got) != 2 {
		t.Fatalf("Deps(0) = %v", got)
	}
	if got := g.Dependents(0); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Dependents(0) = %v", got)
	}
	if g.EdgeCount() != 3 {
		t.Fatalf("edges = %d", g.EdgeCount())
	}
}

// Property: the deps/dependents views are always mirror images, and edge
// count equals the number of successful AddEdge calls.
func TestQuickGraphMirrorInvariant(t *testing.T) {
	prop := func(pairs []struct{ A, B uint8 }) bool {
		g := NewGraph()
		const n = 16
		for i := int64(0); i < n; i++ {
			g.Add(NewRecord(i, "a", nil, nil))
		}
		added := 0
		for _, p := range pairs {
			from, to := int64(p.A%n), int64(p.B%n)
			if err := g.AddEdge(from, to); err == nil {
				added++
			}
		}
		if g.EdgeCount() != added {
			return false
		}
		// Mirror check.
		for i := int64(0); i < n; i++ {
			for _, d := range g.Deps(i) {
				found := false
				for _, dd := range g.Dependents(d) {
					if dd == i {
						found = true
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
