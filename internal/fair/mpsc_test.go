package fair

import (
	"runtime"
	"sync"
	"testing"
)

// TestMPSCDeliversEverythingOnce hammers the queue from many producers and
// checks the single consumer sees every item exactly once.
func TestMPSCDeliversEverythingOnce(t *testing.T) {
	m := NewMPSC[int64](func(int64) string { return "t" })
	const producers, perProducer = 16, 500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				v := int64(p*perProducer + i)
				m.Push(v, v)
			}
		}(p)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	// Take blocks on an empty queue, so the consumer takes only while
	// something is queued, until every producer is done and nothing is left.
	seen := make(map[int64]int)
	for finished := false; ; {
		if m.q.Len() == 0 {
			if finished {
				break
			}
			select {
			case <-done:
				finished = true
			default:
				runtime.Gosched()
			}
			continue
		}
		batch, _ := m.Take(64)
		if len(batch) > 64 {
			t.Fatalf("batch of %d exceeds max 64", len(batch))
		}
		for _, v := range batch {
			seen[v]++
		}
		m.PutBatch(batch)
	}
	if len(seen) != producers*perProducer {
		t.Fatalf("saw %d distinct items, want %d", len(seen), producers*perProducer)
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("item %d delivered %d times", v, n)
		}
	}
	if m.q.Len() != 0 {
		t.Fatalf("Len = %d after drain", m.q.Len())
	}
}

// TestMPSCAllocationFree: the queue allocates nothing per item once warm,
// whether its consumer takes every item as it arrives or a round of 256 at
// once, as the benchmark's probe does.
func TestMPSCAllocationFree(t *testing.T) {
	m := NewMPSC[int64](func(int64) string { return "t" })
	one := func() {
		m.Push(5, 5)
		batch, ok := m.Take(8)
		if !ok || len(batch) != 1 {
			t.Fatalf("took %v, %v; want one item", batch, ok)
		}
		m.PutBatch(batch)
	}
	if n := testing.AllocsPerRun(1000, one); n != 0 {
		t.Fatalf("%.2f allocations per push-take-put, want 0", n)
	}
	const take = 256
	round := func() {
		for k := int64(0); k < take; k++ {
			m.Push(k, k)
		}
		batch, _ := m.Take(take)
		if len(batch) != take {
			t.Fatalf("took %d items, want %d", len(batch), take)
		}
		m.PutBatch(batch)
	}
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Fatalf("%.2f allocations per %d-item round, want 0", n, take)
	}
}
