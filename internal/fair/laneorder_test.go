package fair

import (
	"fmt"
	"math/rand"
	"testing"
)

// laneEntry mirrors what a dispatch lane orders: dispatch priority and wire
// id, plus the arrival number the test uses to check the FIFO tie-break.
type laneEntry struct {
	prio, wire int
	tenant     string
	arrival    int
}

// laneEntryLess is the DFK's laneLess: priority descending, then wire id
// ascending. Entries may tie on both (arrival is not compared).
func laneEntryLess(a, b laneEntry) bool {
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	return a.wire < b.wire
}

// TestLaneOrderProperty drives a comparator queue with seeded random pushes —
// nearly ordered wire ids most of the time (the insertion walk), far
// out-of-order ones sometimes (the bounded walk gives up and the lazy sort
// takes over), duplicates of (priority, wire id) throughout — interleaved with
// pops and Filter, against a model that is nothing but a list per tenant.
// Every popped entry must be its tenant's smallest under laneLess and, among
// equals, the earliest arrival.
func TestLaneOrderProperty(t *testing.T) {
	for _, tenants := range [][]string{{"solo"}, {"a", "b", "c"}} {
		for seed := int64(1); seed <= 20; seed++ {
			t.Run(fmt.Sprintf("tenants=%d/seed=%d", len(tenants), seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				q := NewQueue(laneEntryLess)
				model := map[string][]laneEntry{}
				arrivals, nextWire := 0, 0
				pop := func(max int) {
					batch := q.TryTake(max)
					for _, got := range batch {
						live := model[got.tenant]
						best := 0
						for i, e := range live {
							if laneEntryLess(e, live[best]) {
								best = i // strictly smaller only: ties keep the earliest
							}
						}
						if len(live) == 0 || live[best] != got {
							t.Fatalf("popped %+v, want %+v", got, live[best])
						}
						model[got.tenant] = append(live[:best:best], live[best+1:]...)
					}
					if batch != nil {
						q.PutBatch(batch)
					}
				}
				for step := 0; step < 3000; step++ {
					switch r := rng.Intn(100); {
					case r < 70:
						e := laneEntry{tenant: tenants[rng.Intn(len(tenants))], arrival: arrivals}
						arrivals++
						nextWire++
						e.wire = nextWire + rng.Intn(5) - 2 // a step or two out of order
						if rng.Intn(50) == 0 {
							e.wire = rng.Intn(nextWire + 1) // anywhere in the backlog
						}
						if rng.Intn(10) == 0 {
							e.prio = rng.Intn(3)
						}
						q.Push(e.tenant, 1+rng.Intn(3), e)
						model[e.tenant] = append(model[e.tenant], e)
					case r < 97:
						pop(1 + rng.Intn(3))
					default:
						drop := rng.Intn(7)
						keep := func(e laneEntry) bool { return e.wire%7 != drop }
						q.Filter(keep)
						for tn, live := range model {
							kept := live[:0]
							for _, e := range live {
								if keep(e) {
									kept = append(kept, e)
								}
							}
							model[tn] = kept
						}
					}
				}
				for q.Len() > 0 {
					pop(64)
				}
				for tn, live := range model {
					if len(live) != 0 {
						t.Fatalf("tenant %s: %d entries never popped", tn, len(live))
					}
				}
			})
		}
	}
}
