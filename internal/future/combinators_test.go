package future

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestWaitAllResolved(t *testing.T) {
	a, b, c := Completed(1), Completed(2), Completed(3)
	if err := Wait(a, b, c); err != nil {
		t.Fatalf("Wait: %v", err)
	}
}

func TestWaitFirstErrorInOrder(t *testing.T) {
	e1, e2 := errors.New("first"), errors.New("second")
	a := FromError(e1)
	b := FromError(e2)
	if err := Wait(a, b); !errors.Is(err, e1) {
		t.Fatalf("err = %v, want first in argument order", err)
	}
}

func TestWaitEmpty(t *testing.T) {
	if err := Wait(); err != nil {
		t.Fatalf("Wait() = %v", err)
	}
}

func TestWaitCtxCancel(t *testing.T) {
	f := New()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if err := WaitCtx(ctx, f); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
}

func TestAsCompletedYieldsAll(t *testing.T) {
	futs := make([]*Future, 8)
	for i := range futs {
		futs[i] = New()
	}
	ch := AsCompleted(futs...)
	var wg sync.WaitGroup
	for i := range futs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = futs[i].SetResult(i)
		}(i)
	}
	seen := 0
	for range ch {
		seen++
	}
	wg.Wait()
	if seen != len(futs) {
		t.Fatalf("saw %d completions, want %d", seen, len(futs))
	}
}

func TestAsCompletedOrderIsCompletionOrder(t *testing.T) {
	a, b := New(), New()
	ch := AsCompleted(a, b)
	_ = b.SetResult("b")
	first := <-ch
	if first.Value() != "b" {
		t.Fatalf("first completed = %v, want b", first.Value())
	}
	_ = a.SetResult("a")
	second := <-ch
	if second.Value() != "a" {
		t.Fatalf("second = %v", second.Value())
	}
	if _, open := <-ch; open {
		t.Fatal("channel not closed after all futures")
	}
}

func TestAsCompletedCtxYieldsAllWhenUncanceled(t *testing.T) {
	futs := []*Future{New(), New(), New()}
	for i, f := range futs {
		_ = f.SetResult(i)
	}
	ch := AsCompletedCtx(context.Background(), futs...)
	n := 0
	for range ch {
		n++
	}
	if n != len(futs) {
		t.Fatalf("yielded %d futures, want %d", n, len(futs))
	}
}

func TestAsCompletedCtxStopsOnCancel(t *testing.T) {
	done, stuck := New(), New()
	_ = done.SetResult("done")
	ctx, cancel := context.WithCancel(context.Background())
	ch := AsCompletedCtx(ctx, done, stuck)
	if f := <-ch; f != done {
		t.Fatalf("first yield = %v, want the completed future", f)
	}
	cancel() // stuck never completes; the channel must close anyway
	for f := range ch {
		if f == stuck {
			t.Fatal("yielded a future that never completed")
		}
	}
	if stuck.Done() {
		t.Fatal("cancellation must not touch the futures themselves")
	}
}

func TestWaitCtxFirstErrorWhenNotCanceled(t *testing.T) {
	ok, bad := New(), New()
	_ = ok.SetResult(1)
	wantErr := errors.New("boom")
	_ = bad.SetError(wantErr)
	if err := WaitCtx(context.Background(), ok, bad); !errors.Is(err, wantErr) {
		t.Fatalf("WaitCtx = %v, want %v", err, wantErr)
	}
}

func TestAsCompletedEmpty(t *testing.T) {
	ch := AsCompleted()
	if _, open := <-ch; open {
		t.Fatal("empty AsCompleted channel should be closed")
	}
}

func TestThenChains(t *testing.T) {
	f := New()
	g := Then(f, func(v any) (any, error) { return v.(int) * 2, nil })
	h := Then(g, func(v any) (any, error) { return v.(int) + 1, nil })
	_ = f.SetResult(10)
	v, err := h.Result()
	if err != nil || v != 21 {
		t.Fatalf("chained = %v, %v", v, err)
	}
}

func TestThenErrorShortCircuits(t *testing.T) {
	f := New()
	called := false
	g := Then(f, func(v any) (any, error) { called = true; return v, nil })
	boom := errors.New("boom")
	_ = f.SetError(boom)
	if _, err := g.Result(); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if called {
		t.Fatal("fn called despite upstream error")
	}
}

func TestThenFnError(t *testing.T) {
	f := Completed(1)
	bad := errors.New("fn failed")
	g := Then(f, func(any) (any, error) { return nil, bad })
	if _, err := g.Result(); !errors.Is(err, bad) {
		t.Fatalf("err = %v", err)
	}
}
