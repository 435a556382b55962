package future

import (
	"context"
	"fmt"
	"sync/atomic"
)

// Wait blocks until every future completes. It returns the first error
// encountered (in argument order), or nil when all resolved.
func Wait(futs ...*Future) error {
	var first error
	for _, f := range futs {
		if _, err := f.Result(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// WaitCtx is Wait with context cancellation.
func WaitCtx(ctx context.Context, futs ...*Future) error {
	var first error
	for _, f := range futs {
		if _, err := f.ResultCtx(ctx); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if first == nil {
				first = err
			}
		}
	}
	return first
}

// All returns a future that resolves to []any holding every input's value in
// order, or fails with the first error to occur (by completion time).
func All(futs ...*Future) *Future {
	out := New()
	if len(futs) == 0 {
		_ = out.SetResult([]any{})
		return out
	}
	var done atomic.Int64
	// One callback for every input: it is handed the future it fires for.
	onDone := func(g *Future) {
		if err := g.Err(); err != nil {
			_ = out.SetError(err) // first error wins; later completions no-op
			return
		}
		if done.Add(1) == int64(len(futs)) {
			vals := make([]any, len(futs))
			for i, ff := range futs {
				vals[i] = ff.Value()
			}
			_ = out.SetResult(vals)
		}
	}
	for _, f := range futs {
		f.AddDoneCallback(onDone)
	}
	return out
}

// AsCompleted returns a channel that yields each future as it completes and
// is closed when all have completed. It mirrors
// concurrent.futures.as_completed, which Parsl programs use for
// first-finished consumption.
func AsCompleted(futs ...*Future) <-chan *Future {
	ch := make(chan *Future, len(futs))
	if len(futs) == 0 {
		close(ch)
		return ch
	}
	var done atomic.Int64
	onDone := func(g *Future) {
		ch <- g
		if done.Add(1) == int64(len(futs)) {
			close(ch)
		}
	}
	for _, f := range futs {
		f.AddDoneCallback(onDone)
	}
	return ch
}

// AsCompletedCtx is AsCompleted with context cancellation: the returned
// channel yields futures in completion order and is closed early — possibly
// before every future has completed — once ctx is done. The futures
// themselves are left untouched; only the iteration stops.
func AsCompletedCtx(ctx context.Context, futs ...*Future) <-chan *Future {
	out := make(chan *Future, len(futs))
	inner := AsCompleted(futs...)
	go func() {
		defer close(out)
		for {
			select {
			case <-ctx.Done():
				return
			case f, ok := <-inner:
				if !ok {
					return
				}
				out <- f // cap len(futs): never blocks
			}
		}
	}()
	return out
}

// Then returns a future that, when f resolves, resolves with fn(value); if f
// fails, the error propagates and fn is not called. If fn returns an error
// the derived future fails with it.
func Then(f *Future, fn func(any) (any, error)) *Future {
	out := New()
	f.AddDoneCallback(func(g *Future) {
		v, err := g.Result()
		if err != nil {
			_ = out.SetError(err)
			return
		}
		nv, err := fn(v)
		if err != nil {
			_ = out.SetError(err)
			return
		}
		_ = out.SetResult(nv)
	})
	return out
}

// CollectErrors waits for all futures and returns every error, annotated with
// its index, in argument order. Used by fault-tolerance tests and retried
// branches (§3.7: re-executing a failed branch must not disturb others).
func CollectErrors(futs ...*Future) []error {
	var errs []error
	for i, f := range futs {
		if _, err := f.Result(); err != nil {
			errs = append(errs, fmt.Errorf("future %d: %w", i, err))
		}
	}
	return errs
}
