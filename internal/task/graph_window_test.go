package task

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// held returns a record that lives outside the pool: the hold keeps Retire
// from recycling it, so reuse can put it back in a graph under a new id with
// the edge storage it has grown. The allocation and span tests run on these,
// because a million NewRecords would measure the futures, not the window.
func held() *Record { return &Record{holds: 1} }

func (r *Record) reuse(id int64) *Record {
	r.ID, r.retired = id, false
	return r
}

// window reports the pages resident in every shard's directory, the longest
// directory, and the pages parked on free lists.
func window(g *Graph) (pages, dirLen, free int) {
	for i := range g.shards {
		s := &g.shards[i]
		s.mu.Lock()
		for _, p := range s.dir {
			if p != nil {
				pages++
			}
		}
		if len(s.dir) > 0 && s.dir[0] == nil {
			panic(fmt.Sprintf("shard %d: directory head is an empty page", i))
		}
		dirLen = max(dirLen, len(s.dir))
		free += s.nfree
		s.mu.Unlock()
	}
	return pages, dirLen, free
}

// graphModel is what the graph promised when it was three maps per shard.
type graphModel struct {
	live       map[int64]*Record
	deps       map[int64][]int64
	dependents map[int64][]int64
	pruned     [NumShards]int64
	prunedBy   map[State]int
}

func (m *graphModel) addEdge(from, to int64) bool {
	if from == to || m.live[from] == nil || m.live[to] == nil {
		return false
	}
	m.deps[to] = append(m.deps[to], from)
	m.dependents[from] = append(m.dependents[from], to)
	return true
}

func (m *graphModel) retire(id int64, st State) int64 {
	delete(m.live, id)
	delete(m.deps, id)
	delete(m.dependents, id)
	m.prunedBy[st]++
	m.pruned[Shard(id)]++
	return m.pruned[Shard(id)]
}

// TestGraphAgainstMapModel drives seeded random interleavings of every graph
// operation — over ids drawn from NextID, some never added, some added long
// after their neighbours retired, with runs of skipped ids so the window
// crosses many pages — and compares each answer with the map model's.
func TestGraphAgainstMapModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { runGraphModel(t, seed, 20000) })
	}
}

func runGraphModel(t *testing.T, seed int64, ops int) {
	rng := rand.New(rand.NewSource(seed))
	g := NewGraph()
	m := &graphModel{
		live: map[int64]*Record{}, deps: map[int64][]int64{},
		dependents: map[int64][]int64{}, prunedBy: map[State]int{},
	}
	var liveIDs, late []int64 // resident ids in add order; reserved ids not added yet
	var issued int64
	terminal := []State{Done, Failed, Memoized}
	// anyID is mostly a resident id, else anything: retired, reserved, never
	// issued, negative.
	anyID := func() int64 {
		if len(liveIDs) > 0 && rng.Intn(4) > 0 {
			return liveIDs[rng.Intn(len(liveIDs))]
		}
		return rng.Int63n(issued+100) - 50
	}
	add := func(id int64) {
		r := NewRecord(id, "n", nil, nil)
		if rng.Intn(3) == 0 {
			_ = r.SetState(Pending)
		}
		g.Add(r)
		m.live[id] = r
		liveIDs = append(liveIDs, id)
	}
	retire := func(i int) {
		id := liveIDs[i]
		liveIDs = slices.Delete(liveIDs, i, i+1)
		st := terminal[rng.Intn(len(terminal))]
		if got, want := g.RetireAs(m.live[id], st), m.retire(id, st); got != want {
			t.Fatalf("RetireAs(%d) = %d pruned, model %d", id, got, want)
		}
	}
	for op := 0; op < ops; op++ {
		switch k := rng.Intn(100); {
		case k < 30:
			id := g.NextID()
			issued = id + 1
			switch rng.Intn(10) {
			case 0: // a retry's wire id: never added
			case 1, 2:
				late = append(late, id)
			default:
				add(id)
			}
		case k < 32: // a run of ids nobody adds: the window moves on by pages
			for n := rng.Intn(30000); n > 0; n-- {
				issued = g.NextID() + 1
			}
		case k < 38:
			if len(late) > 0 {
				i := rng.Intn(len(late))
				add(late[i])
				late = slices.Delete(late, i, i+1)
			}
		case k < 58:
			from, to := anyID(), anyID()
			if got, want := g.AddEdge(from, to) == nil, m.addEdge(from, to); got != want {
				t.Fatalf("AddEdge(%d, %d) ok = %v, model %v", from, to, got, want)
			}
		case k < 80:
			if n := len(liveIDs); n > 0 {
				// Mostly the oldest, so that the head slides; sometimes any,
				// so that pages empty in the middle; sometimes everything, so
				// that the live set falls to zero.
				switch r := rng.Intn(50); {
				case r == 0:
					for len(liveIDs) > 0 {
						retire(len(liveIDs) - 1)
					}
				case r < 30:
					retire(0)
				default:
					retire(rng.Intn(n))
				}
			}
		case k < 90:
			id := anyID()
			if got := get(g, id); got != m.live[id] {
				t.Fatalf("Get(%d) = %v, model %v", id, got, m.live[id])
			}
		default:
			id := anyID()
			if got := g.Deps(id); got == nil || !slices.Equal(got, m.deps[id]) {
				t.Fatalf("Deps(%d) = %v, model %v", id, got, m.deps[id])
			}
			if got := g.Dependents(id); got == nil || !slices.Equal(got, m.dependents[id]) {
				t.Fatalf("Dependents(%d) = %v, model %v", id, got, m.dependents[id])
			}
		}
		if op%500 != 0 && op != ops-1 {
			continue
		}
		if liveCount(g) != len(m.live) || len(tasks(g)) != len(m.live) {
			t.Fatalf("op %d: Len = %d, Tasks = %d, model %d", op, liveCount(g), len(tasks(g)), len(m.live))
		}
		edges, counts := 0, map[State]int{}
		for id, r := range m.live {
			edges += len(m.deps[id])
			counts[r.State()]++
		}
		for st, n := range m.prunedBy {
			counts[st] += n
		}
		if g.EdgeCount() != edges {
			t.Fatalf("op %d: EdgeCount = %d, model %d", op, g.EdgeCount(), edges)
		}
		if got := countByState(g); !maps.Equal(got, counts) {
			t.Fatalf("op %d: resident states plus pruned tallies = %v, model %v", op, got, counts)
		}
		perShard := make([]int, NumShards)
		for id := range m.live {
			perShard[Shard(id)]++
		}
		if got := shardCounts(g); !slices.Equal(got, perShard) {
			t.Fatalf("op %d: ShardCounts = %v, model %v", op, got, perShard)
		}
		for i, want := range m.pruned {
			if shardPruned(g, i) != want {
				t.Fatalf("op %d: pruned(shard %d) = %d, model %d", op, i, shardPruned(g, i), want)
			}
		}
		if pages, _, _ := window(g); pages > len(m.live) {
			t.Fatalf("op %d: %d resident pages for %d nodes", op, pages, len(m.live))
		}
	}
}

func TestGraphAddRejectsNegativeID(t *testing.T) {
	g := NewGraph()
	if get(g, -1) != nil || len(g.Deps(-1)) != 0 || len(g.Dependents(-33)) != 0 {
		t.Fatal("lookup of a negative id found something")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Add of a negative id did not panic")
		}
		if pages, dirLen, _ := window(g); pages != 0 || dirLen != 0 {
			t.Fatalf("rejected Add left %d pages, directory %d", pages, dirLen)
		}
	}()
	g.Add(held().reuse(-1))
}

// A long-lived node pins its own page and a directory entry per page of span
// behind it — not the pages of the million nodes that came and went since.
func TestGraphStragglerPinsOnePage(t *testing.T) {
	g := NewGraph()
	first := held().reuse(g.NextID())
	g.Add(first)
	const n = 1_000_000
	r := held()
	for i := 1; i < n; i++ {
		g.Add(r.reuse(g.NextID()))
		if i%100_000 == 0 {
			// The straggler's page, and the one the frontier is on.
			if pages, _, _ := window(g); pages != 2 {
				t.Fatalf("after %d nodes: %d resident pages, want 2", i, pages)
			}
		}
		g.RetireAs(r, Done)
	}
	pages, dirLen, free := window(g)
	if span := n/(pageSize*NumShards) + 1; pages != 1 || dirLen > span || free > NumShards {
		t.Fatalf("window holds %d pages, directory %d (span %d), %d free pages", pages, dirLen, span, free)
	}
	if get(g, first.ID) != first || liveCount(g) != 1 {
		t.Fatalf("straggler lost: Get = %v, Len = %d", get(g, first.ID), liveCount(g))
	}
	g.RetireAs(first, Done)
	if pages, dirLen, _ := window(g); pages != 0 || dirLen != 0 || liveCount(g) != 0 {
		t.Fatalf("drained window holds %d pages, directory %d, Len %d", pages, dirLen, liveCount(g))
	}
	if recycled(g) != n {
		t.Fatalf("recycled %d of %d", recycled(g), n)
	}
}

// Goroutines race from NextID to Add, so an id can arrive after the head of
// its shard's window has slid past the page it belongs to.
func TestGraphOutOfOrderAdd(t *testing.T) {
	g := NewGraph()
	reserved := g.NextID()
	const later, keep = 100_000, 2 * NumShards
	var tail []*Record
	r := held()
	for i := 0; i < later; i++ {
		if i >= later-keep {
			tail = append(tail, held().reuse(g.NextID()))
			g.Add(tail[len(tail)-1])
			continue
		}
		g.Add(r.reuse(g.NextID()))
		g.RetireAs(r, Done)
	}
	s := g.shard(reserved)
	if s.base == 0 {
		t.Fatal("head did not slide: the test would not add below it")
	}
	late := held().reuse(reserved)
	g.Add(late)
	if get(g, reserved) != late || s.base != 0 || liveCount(g) != keep+1 {
		t.Fatalf("late add: Get = %v, base = %d, Len = %d", get(g, reserved), s.base, liveCount(g))
	}
	for _, r := range tail {
		if get(g, r.ID) != r {
			t.Fatalf("node %d lost when the directory grew backwards", r.ID)
		}
	}
	child := tail[len(tail)-1].ID
	if err := g.AddEdge(reserved, child); err != nil {
		t.Fatal(err)
	}
	for _, from := range []int64{reserved, reserved} {
		if err := g.AddEdge(from, tail[0].ID); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge(later+5, tail[0].ID); err == nil {
		t.Fatal("edge from an id never issued accepted")
	}
	if got := g.Dependents(reserved); !slices.Equal(got, []int64{child, tail[0].ID, tail[0].ID}) {
		t.Fatalf("Dependents(late) = %v", got)
	}
	if got := g.Deps(tail[0].ID); !slices.Equal(got, []int64{reserved, reserved}) {
		t.Fatalf("Deps = %v", got)
	}
	g.RetireAs(late, Done)
	if get(g, reserved) != nil || s.base == 0 || liveCount(g) != keep || g.EdgeCount() != 3 {
		t.Fatalf("after retiring the late node: Get = %v, base = %d, Len = %d, edges = %d",
			get(g, reserved), s.base, liveCount(g), g.EdgeCount())
	}
}

// The window and the edge lists allocate while they grow and not afterwards:
// pages, directories and list storage are all reused. The repository
// benchmark's allocs_per_task bounds are 2 %, which a page per task (a live
// set that keeps falling to zero) or a page per 512 (no free list) would
// cross; this is the one-second version of that check.
func TestGraphSteadyStateAllocations(t *testing.T) {
	g := NewGraph()
	a, b := held(), held()
	g.Add(a.reuse(g.NextID()))
	// One node at a time: add the next, hang it on the previous, retire the
	// previous. 200 k ids take every shard across a dozen page boundaries.
	chain := func() {
		for i := 0; i < 200_000; i++ {
			g.Add(b.reuse(g.NextID()))
			if err := g.AddEdge(a.ID, b.ID); err != nil {
				t.Fatal(err)
			}
			g.RetireAs(a, Done)
			a, b = b, a
		}
	}
	if n := testing.AllocsPerRun(1, chain); n != 0 {
		t.Errorf("one node at a time: %v allocations in 200k add/edge/retire steps, want 0", n)
	}
	g.RetireAs(a, Done)

	// A burst that fills several pages per shard and drains to nothing.
	const burst = 100_000
	recs := make([]*Record, burst)
	for i := range recs {
		recs[i] = held()
	}
	lap := func() {
		for i, r := range recs {
			g.Add(r.reuse(g.NextID()))
			if i > 0 {
				if err := g.AddEdge(recs[i-1].ID, r.ID); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, r := range recs {
			g.RetireAs(r, Done)
		}
	}
	// AllocsPerRun's warm-up call is the first lap.
	if n := testing.AllocsPerRun(3, lap); n > burst/100 {
		t.Errorf("burst: %v allocations per %d-node lap, want <= %d", n, burst, burst/100)
	}
	if pages, dirLen, _ := window(g); pages != 0 || dirLen != 0 {
		t.Fatalf("drained window holds %d pages, directory %d", pages, dirLen)
	}
}

// TestGraphConcurrentHammer is eight submitters that add a node, link it to
// its parents one AddEdge each (their own earlier nodes and whatever other
// goroutines published, which may retire meanwhile), look
// things up, retire their oldest — on pooled records, which carry their edge
// storage from shard to shard. At quiescence the two edge views must be mirror
// images over the nodes still resident.
func TestGraphConcurrentHammer(t *testing.T) {
	const workers, steps, keep = 8, 4000, 48
	g := NewGraph()
	var recent [64]atomic.Int64 // ids other goroutines may name as parents
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var own []*Record
			for i := 0; i < steps; i++ {
				if rng.Intn(8) == 0 {
					g.NextID() // a hole
				}
				r := NewRecord(g.NextID(), "n", nil, nil)
				g.Add(r)
				parents := make([]int64, rng.Intn(20))
				for j := range parents {
					if len(own) > 0 && rng.Intn(2) == 0 {
						parents[j] = own[rng.Intn(len(own))].ID
					} else {
						parents[j] = recent[rng.Intn(len(recent))].Load()
					}
				}
				for _, p := range parents {
					_ = g.AddEdge(p, r.ID) // a parent may have retired meanwhile
				}
				if len(own) > 0 {
					if err := g.AddEdge(own[rng.Intn(len(own))].ID, r.ID); err != nil {
						t.Error(err) // both ends are this goroutine's, and resident
					}
				}
				recent[rng.Intn(len(recent))].Store(r.ID)
				own = append(own, r)
				if probe := recent[rng.Intn(len(recent))].Load(); get(g, probe) != nil {
					_, _ = g.Deps(probe), g.Dependents(probe)
				}
				for len(own) > keep {
					k := 0
					if rng.Intn(4) == 0 {
						k = rng.Intn(len(own))
					}
					g.RetireAs(own[k], Done)
					own = slices.Delete(own, k, k+1)
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()

	if liveCount(g) != workers*keep || recycled(g) != workers*(steps-keep) {
		t.Fatalf("Len = %d, recycled = %d", liveCount(g), recycled(g))
	}
	total := 0
	for _, r := range tasks(g) {
		v := r.ID
		deps := g.Deps(v)
		total += len(deps)
		for _, d := range deps {
			if get(g, d) != nil && count(g.Dependents(d), v) != count(deps, d) {
				t.Fatalf("Deps(%d) names %d ×%d, Dependents(%d) names it back ×%d",
					v, d, count(deps, d), d, count(g.Dependents(d), v))
			}
		}
		for _, w := range g.Dependents(v) {
			if get(g, w) != nil && count(g.Deps(w), v) == 0 {
				t.Fatalf("Dependents(%d) names %d, whose Deps do not name it back", v, w)
			}
		}
	}
	if g.EdgeCount() != total || total == 0 {
		t.Fatalf("EdgeCount = %d, sum of Deps = %d", g.EdgeCount(), total)
	}
	for _, r := range tasks(g) {
		g.RetireAs(r, Done)
	}
	if pages, dirLen, _ := window(g); pages != 0 || dirLen != 0 || g.EdgeCount() != 0 {
		t.Fatalf("drained window holds %d pages, directory %d, %d edges", pages, dirLen, g.EdgeCount())
	}
}

func count(ids []int64, id int64) (n int) {
	for _, x := range ids {
		if x == id {
			n++
		}
	}
	return n
}

// get returns the record for id, or nil (negative, retired and never-added
// ids included: no lookup grows the window).
func get(g *Graph, id int64) *Record {
	s := g.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.get(id)
}

// shardPruned returns one shard's cumulative pruned count.
func shardPruned(g *Graph, shard int) int64 {
	s := &g.shards[shard]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.prunedDone + s.prunedFailed + s.prunedMemoized
}

// liveCount sums the shards' resident-node counters.
func liveCount(g *Graph) (n int) {
	g.sweep(func(_ int, s *graphShard) { n += s.live })
	return n
}

// tasks returns the records resident in g's window.
func tasks(g *Graph) (out []*Record) {
	g.sweep(func(_ int, s *graphShard) { s.each(func(r *Record) { out = append(out, r) }) })
	return out
}

// recycled returns the number of records pruned from g.
func recycled(g *Graph) (n int64) {
	for i := range NumShards {
		n += shardPruned(g, i)
	}
	return n
}

// countByState tallies the resident records by state plus the shards' pruned
// tallies, leaving out states that count zero.
func countByState(g *Graph) map[State]int {
	counts := map[State]int{}
	for _, r := range tasks(g) {
		counts[r.State()]++
	}
	g.sweep(func(_ int, s *graphShard) {
		counts[Done] += int(s.prunedDone)
		counts[Failed] += int(s.prunedFailed)
		counts[Memoized] += int(s.prunedMemoized)
	})
	maps.DeleteFunc(counts, func(_ State, n int) bool { return n == 0 })
	return counts
}

// shardCounts returns the number of tasks held by each shard.
func shardCounts(g *Graph) []int {
	out := make([]int, NumShards)
	g.sweep(func(i int, s *graphShard) { out[i] = s.live })
	return out
}
