package future

import (
	"context"
	"sync"
)

// Barrier is the additional synchronization primitive the paper lists as
// future work (§7: "additional synchronization primitives such as
// barriers"). Futures are registered with Add; Wait blocks until every
// registered future has completed. Unlike Wait/All, a Barrier is reusable
// and accepts registrations while other goroutines are already waiting,
// which suits iterative programs that widen a phase dynamically.
type Barrier struct {
	mu      sync.Mutex
	pending int
	cond    *sync.Cond
	errs    []error
}

// NewBarrier returns an empty barrier (Wait on it returns immediately).
func NewBarrier() *Barrier {
	b := &Barrier{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Add registers futures with the barrier. Completed futures are accounted
// immediately; pending ones decrement the barrier when they complete.
func (b *Barrier) Add(futs ...*Future) {
	b.mu.Lock()
	b.pending += len(futs)
	b.mu.Unlock()
	for _, f := range futs {
		f.AddDoneCallback(func(g *Future) {
			b.mu.Lock()
			b.pending--
			if err := g.Err(); err != nil {
				b.errs = append(b.errs, err)
			}
			if b.pending == 0 {
				b.cond.Broadcast()
			}
			b.mu.Unlock()
		})
	}
}

// Pending returns the number of unfinished registered futures.
func (b *Barrier) Pending() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.pending
}

// Wait blocks until every registered future (including ones added while
// waiting) has completed, and returns the first error observed, if any.
func (b *Barrier) Wait() error { return b.WaitCtx(context.Background()) }

// WaitCtx is Wait with cancellation. On context expiry the barrier is left
// intact and the context error is returned. The wait holds no goroutine:
// the context's end wakes it through the condition variable, and the
// broadcast takes the lock, so it cannot fall between the check of ctx and
// the wait.
func (b *Barrier) WaitCtx(ctx context.Context) error {
	stop := context.AfterFunc(ctx, func() {
		b.mu.Lock()
		b.cond.Broadcast()
		b.mu.Unlock()
	})
	defer stop()
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.pending > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		b.cond.Wait()
	}
	if len(b.errs) > 0 {
		return b.errs[0]
	}
	return nil
}

// Errors returns all failures observed so far (copy).
func (b *Barrier) Errors() []error {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]error, len(b.errs))
	copy(out, b.errs)
	return out
}
