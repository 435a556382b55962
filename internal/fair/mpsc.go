package fair

import (
	"sync"
	"sync/atomic"
)

// mpscShards is the shard count of an MPSC queue, a power of two: dense keys
// spread uniformly across shards by masking.
const mpscShards = 32

// MPSC is a sharded multi-producer single-consumer queue: producers push
// into the shard named by their item's key, touching only that shard's
// mutex, so parallel producers do not contend on one queue head; the single
// consumer sweeps the shards round-robin. The DFK does not use it (a ready
// task is routed on the goroutine that made it ready); the benchmark times
// it as fair.mpsc_push_take_ns.
//
// Push never blocks and never fails; the consumer's Take blocks while the
// queue is empty.
type MPSC[T any] struct {
	size atomic.Int64

	// notify holds at most one wake-up token for the consumer; producers
	// send non-blocking after publishing, so a sleeping consumer always
	// finds either the token or a non-zero size.
	notify chan struct{}

	// cursor and free are consumer-owned: the shard the next sweep starts
	// from, and up to maxFreeBatches batches handed back by PutBatch.
	cursor int
	free   [][]T

	shards [mpscShards]mpscShard[T]
}

// mpscShard is one producer-side lane. The pad keeps hot shard headers on
// separate cache lines.
type mpscShard[T any] struct {
	mu    sync.Mutex
	items []T
	_     [40]byte
}

// NewMPSC returns an empty queue. Its argument, an item's tenant, is unused:
// the queue reports no per-tenant occupancy.
func NewMPSC[T any](func(T) string) *MPSC[T] {
	return &MPSC[T]{notify: make(chan struct{}, 1)}
}

// Push enqueues item on the shard selected by key. It never blocks: the
// shard lock is held only for an append.
func (m *MPSC[T]) Push(key int64, item T) {
	s := &m.shards[uint64(key)&(mpscShards-1)]
	s.mu.Lock()
	s.items = append(s.items, item)
	// Counted inside the critical section so the consumer's size view never
	// lags items it can already observe under the shard lock.
	m.size.Add(1)
	s.mu.Unlock()
	select {
	case m.notify <- struct{}{}:
	default:
	}
}

// Take returns a batch of up to max items, blocking while the queue is
// empty; ok is always true. Single consumer only. Return exhausted batches
// with PutBatch.
func (m *MPSC[T]) Take(max int) ([]T, bool) {
	if max <= 0 {
		max = batchCap
	}
	for {
		if m.size.Load() > 0 {
			if batch := m.sweep(max); len(batch) > 0 {
				return batch, true
			}
		}
		<-m.notify
	}
}

// sweep collects up to max items starting at the consumer cursor: each shard
// gives up to an equal share of the batch (one lock acquisition per shard),
// and the items are then emitted one per shard per round. Keys
// drawn from one dense sequence — wire ids — therefore leave in key order
// rather than in per-shard runs, and the priority lanes downstream receive
// them (nearly) sorted. The cursor moves on by the number of items taken,
// which keeps it on the shard holding the lowest key and, when the consumer
// takes less than everything, visits every shard in turn.
func (m *MPSC[T]) sweep(max int) []T {
	batch := m.batch()
	var zero T
	var counts [mpscShards]int
	rounds := 0
	for i := 0; i < mpscShards && len(batch) < max; i++ {
		s := &m.shards[(m.cursor+i)&(mpscShards-1)]
		s.mu.Lock()
		// The room left, shared among the shards left (rounded up).
		left := mpscShards - i
		take := (max - len(batch) + left - 1) / left
		if take > len(s.items) {
			take = len(s.items)
		}
		if take > 0 {
			batch = append(batch, s.items[:take]...)
			n := copy(s.items, s.items[take:])
			for j := n; j < len(s.items); j++ {
				s.items[j] = zero
			}
			s.items = s.items[:n]
			m.size.Add(int64(-take))
		}
		s.mu.Unlock()
		counts[i] = take
		if take > rounds {
			rounds = take
		}
	}
	m.cursor = (m.cursor + len(batch)) & (mpscShards - 1)
	if rounds <= 1 {
		return batch // one item per shard: already in round order
	}
	out := m.batch()
	for r := 0; r < rounds; r++ {
		off := 0
		for _, c := range counts {
			if r < c {
				out = append(out, batch[off+r])
			}
			off += c
		}
	}
	m.PutBatch(batch)
	return out
}

// batch returns an empty batch, a free one when there is one.
func (m *MPSC[T]) batch() []T {
	if b, ok := popLast(&m.free); ok {
		return b
	}
	return make([]T, 0, batchCap)
}

// PutBatch clears a batch obtained from Take and keeps it for the next
// sweep, up to maxFreeBatches. Consumer only, like Take: the free list is
// the consumer's, so it takes no lock.
func (m *MPSC[T]) PutBatch(batch []T) {
	if cap(batch) == 0 {
		return
	}
	clear(batch)
	if len(m.free) < maxFreeBatches {
		m.free = append(m.free, batch[:0])
	}
}
