package future

import (
	"context"
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
