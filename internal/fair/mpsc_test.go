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
		if m.size.Load() == 0 {
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
	if m.size.Load() != 0 {
		t.Fatalf("Len = %d after drain", m.size.Load())
	}
}

// TestMPSCSweepRotatesShards pins the anti-starvation property: when every
// shard holds work and the consumer takes less than everything, consecutive
// sweeps start from different shards instead of re-draining shard 0.
func TestMPSCSweepRotatesShards(t *testing.T) {
	m := NewMPSC[int64](func(int64) string { return "t" })
	// One item in each of the 32 shards (keys 0..31 map 1:1 by masking).
	for k := int64(0); k < mpscShards; k++ {
		m.Push(k, k)
	}
	// Taking one item at a time must eventually visit every shard: the
	// cursor advances after each non-empty sweep.
	seen := make(map[int64]bool)
	for i := 0; i < mpscShards; i++ {
		batch, ok := m.Take(1)
		if !ok || len(batch) != 1 {
			t.Fatalf("take %d: batch %v ok %v", i, batch, ok)
		}
		seen[batch[0]] = true
		m.PutBatch(batch)
	}
	if len(seen) != mpscShards {
		t.Fatalf("single-item sweeps visited %d shards, want %d (starvation)", len(seen), mpscShards)
	}
}

// TestMPSCSweepKeepsDenseKeysInOrder: items keyed by one dense sequence — the
// DFK's wire ids — leave in key order however deep the shards are and however
// the consumer sizes its takes, so the lanes downstream need not re-sort.
func TestMPSCSweepKeepsDenseKeysInOrder(t *testing.T) {
	m := NewMPSC[int64](func(int64) string { return "t" })
	next, want := int64(0), int64(0)
	push := func(n int) {
		for i := 0; i < n; i++ {
			m.Push(next, next)
			next++
		}
	}
	for _, step := range []struct{ push, take int }{
		{1000, 256}, {0, 256}, {7, 1}, {500, 40}, {3, 256}, {0, 256}, {0, 256}, {33, 5}, {0, 256},
	} {
		push(step.push)
		batch, _ := m.Take(step.take)
		if len(batch) == 0 || len(batch) > step.take {
			t.Fatalf("Take(%d) returned %d items", step.take, len(batch))
		}
		for _, v := range batch {
			if v != want {
				t.Fatalf("got key %d, want %d (batch %v)", v, want, batch)
			}
			want++
		}
		m.PutBatch(batch)
	}
}

// TestMPSCSweepFindsLoneShard: a take smaller than the shard count must still
// reach an item sitting far from the cursor.
func TestMPSCSweepFindsLoneShard(t *testing.T) {
	m := NewMPSC[int64](func(int64) string { return "t" })
	m.Push(21, 21)
	batch, ok := m.Take(1)
	if !ok || len(batch) != 1 || batch[0] != 21 {
		t.Fatalf("Take(1) = %v, %v", batch, ok)
	}
}

// TestMPSCAllocationFree: the queue allocates nothing per item once
// warm when its consumer takes every item as it arrives — including the
// reorder pass, whose second batch comes from the free list too.
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
	reordered := func() {
		for _, k := range []int64{0, 32, 1, 33} { // two rounds on two shards
			m.Push(k, k)
		}
		batch, _ := m.Take(64) // room for two items a shard
		if len(batch) != 4 {
			t.Fatalf("took %v, want four items", batch)
		}
		m.PutBatch(batch)
	}
	if n := testing.AllocsPerRun(1000, reordered); n != 0 {
		t.Fatalf("%.2f allocations per reordered sweep, want 0", n)
	}
	if len(m.free) > maxFreeBatches {
		t.Fatalf("%d free batches, bound %d", len(m.free), maxFreeBatches)
	}
}
