package future

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestBarrierEmptyWaitReturns(t *testing.T) {
	b := NewBarrier()
	if err := b.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierWaitsForAll(t *testing.T) {
	b := NewBarrier()
	futs := make([]*Future, 5)
	for i := range futs {
		futs[i] = New()
	}
	b.Add(futs...)
	done := make(chan error, 1)
	go func() { done <- b.Wait() }()
	for i, f := range futs {
		select {
		case <-done:
			t.Fatalf("barrier released after %d of %d futures", i, len(futs))
		default:
		}
		_ = f.SetResult(i)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("barrier never released")
	}
}

func TestBarrierReportsErrors(t *testing.T) {
	b := NewBarrier()
	ok, bad := New(), New()
	b.Add(ok, bad)
	boom := errors.New("boom")
	_ = ok.SetResult(1)
	_ = bad.SetError(boom)
	if err := b.Wait(); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if len(b.Errors()) != 1 {
		t.Fatalf("errors = %v", b.Errors())
	}
}

func TestBarrierAcceptsCompletedFutures(t *testing.T) {
	b := NewBarrier()
	b.Add(Completed(1), Completed(2))
	if err := b.Wait(); err != nil {
		t.Fatal(err)
	}
	if b.Pending() != 0 {
		t.Fatalf("pending = %d", b.Pending())
	}
}

func TestBarrierDynamicAddWhileWaiting(t *testing.T) {
	b := NewBarrier()
	first := New()
	b.Add(first)
	released := make(chan error, 1)
	go func() { released <- b.Wait() }()

	// Widen the phase while a waiter is blocked.
	second := New()
	b.Add(second)
	_ = first.SetResult(nil)
	select {
	case <-released:
		t.Fatal("barrier released with second future pending")
	case <-time.After(20 * time.Millisecond):
	}
	_ = second.SetResult(nil)
	select {
	case err := <-released:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("never released")
	}
}

func TestBarrierReusableAcrossPhases(t *testing.T) {
	b := NewBarrier()
	for phase := 0; phase < 3; phase++ {
		f := New()
		b.Add(f)
		_ = f.SetResult(phase)
		if err := b.Wait(); err != nil {
			t.Fatalf("phase %d: %v", phase, err)
		}
	}
}

func TestBarrierWaitCtx(t *testing.T) {
	b := NewBarrier()
	b.Add(New()) // never completes
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := b.WaitCtx(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	if b.Pending() != 1 {
		t.Fatal("barrier state corrupted by ctx expiry")
	}
}

// TestBarrierWaitCtxLeavesNoWaiter: a WaitCtx that returns on its context
// leaves nothing behind, even on a barrier whose registered future never
// settles — it used to leave one goroutine per call parked in Wait.
func TestBarrierWaitCtxLeavesNoWaiter(t *testing.T) {
	b := NewBarrier()
	b.Add(New()) // never completes
	before := runtime.NumGoroutine()
	const calls = 50
	for i := 0; i < calls; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		err := b.WaitCtx(ctx)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("call %d: err = %v", i, err)
		}
	}
	deadline := time.Now().Add(time.Second)
	for n := runtime.NumGoroutine(); n > before; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			t.Fatalf("%d timed-out WaitCtx calls left %d goroutines behind", calls, n-before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestBarrierManyWaiters(t *testing.T) {
	b := NewBarrier()
	f := New()
	b.Add(f)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- b.Wait()
		}()
	}
	_ = f.SetResult(nil)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
