package fair

// MPSC is a multi-producer single-consumer queue: a Queue with one tenant.
// The DFK does not use it (a ready task is routed on the goroutine that made
// it ready); the benchmark times it as fair.mpsc_push_take_ns.
type MPSC[T any] struct{ q *Queue[T] }

// NewMPSC returns an empty FIFO queue. Its argument, an item's tenant, is
// unused: every item goes to the one tenant.
func NewMPSC[T any](func(T) string) *MPSC[T] {
	return &MPSC[T]{q: NewQueue[T](nil)}
}

// Push enqueues item; key is unused. It never blocks.
func (m *MPSC[T]) Push(_ int64, item T) { m.q.Push(DefaultTenant, 0, item) }

// Take returns a batch of up to max items in arrival order, blocking while
// the queue is empty; ok is always true. Return exhausted batches with
// PutBatch.
func (m *MPSC[T]) Take(max int) ([]T, bool) { return m.q.Take(max) }

// PutBatch clears a batch obtained from Take and keeps it for the next one.
func (m *MPSC[T]) PutBatch(batch []T) { m.q.PutBatch(batch) }
