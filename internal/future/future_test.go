package future

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestNewIsPending(t *testing.T) {
	f := New()
	if f.Done() {
		t.Fatal("new future reports done")
	}
	if got := f.State(); got != Pending {
		t.Fatalf("state = %v, want Pending", got)
	}
	if f.Err() != nil {
		t.Fatalf("pending Err = %v, want nil", f.Err())
	}
	if f.Value() != nil {
		t.Fatalf("pending Value = %v, want nil", f.Value())
	}
}

func TestSetResultResolves(t *testing.T) {
	f := New()
	if err := f.SetResult(42); err != nil {
		t.Fatalf("SetResult: %v", err)
	}
	if !f.Done() {
		t.Fatal("future not done after SetResult")
	}
	v, err := f.Result()
	if err != nil {
		t.Fatalf("Result err = %v", err)
	}
	if v != 42 {
		t.Fatalf("Result = %v, want 42", v)
	}
	if got := f.State(); got != Resolved {
		t.Fatalf("state = %v, want Resolved", got)
	}
}

func TestSetErrorFails(t *testing.T) {
	f := New()
	want := errors.New("boom")
	if err := f.SetError(want); err != nil {
		t.Fatalf("SetError: %v", err)
	}
	_, err := f.Result()
	if !errors.Is(err, want) {
		t.Fatalf("Result err = %v, want %v", err, want)
	}
	if got := f.State(); got != Failed {
		t.Fatalf("state = %v, want Failed", got)
	}
}

func TestSingleUpdateSemantics(t *testing.T) {
	f := New()
	if err := f.SetResult(1); err != nil {
		t.Fatalf("first SetResult: %v", err)
	}
	if err := f.SetResult(2); !errors.Is(err, ErrAlreadySet) {
		t.Fatalf("second SetResult err = %v, want ErrAlreadySet", err)
	}
	if err := f.SetError(errors.New("x")); !errors.Is(err, ErrAlreadySet) {
		t.Fatalf("SetError after SetResult err = %v, want ErrAlreadySet", err)
	}
	if v, _ := f.Result(); v != 1 {
		t.Fatalf("value overwritten: %v", v)
	}
}

func TestSetErrorNil(t *testing.T) {
	f := New()
	if err := f.SetError(nil); err != nil {
		t.Fatalf("SetError(nil): %v", err)
	}
	if _, err := f.Result(); err == nil {
		t.Fatal("SetError(nil) should still fail the future with a non-nil error")
	}
}

func TestCancel(t *testing.T) {
	f := New()
	if !f.Cancel() {
		t.Fatal("Cancel on pending future returned false")
	}
	if _, err := f.Result(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	g := Completed(1)
	if g.Cancel() {
		t.Fatal("Cancel on resolved future returned true")
	}
}

func TestCompletedAndFromError(t *testing.T) {
	f := Completed("hi")
	if v, err := f.Result(); err != nil || v != "hi" {
		t.Fatalf("Completed: %v, %v", v, err)
	}
	e := errors.New("bad")
	g := FromError(e)
	if _, err := g.Result(); !errors.Is(err, e) {
		t.Fatalf("FromError: %v", err)
	}
}

func TestResultBlocksUntilSet(t *testing.T) {
	f := New()
	start := make(chan struct{})
	go func() {
		close(start)
		time.Sleep(10 * time.Millisecond)
		_ = f.SetResult("late")
	}()
	<-start
	v, err := f.Result()
	if err != nil || v != "late" {
		t.Fatalf("Result = %v, %v", v, err)
	}
}

func TestResultCtxCancellation(t *testing.T) {
	f := New()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f.ResultCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Future is untouched and can still resolve.
	if err := f.SetResult(7); err != nil {
		t.Fatalf("SetResult after ctx cancel: %v", err)
	}
}

func TestResultTimeout(t *testing.T) {
	f := New()
	if _, err := f.ResultTimeout(5 * time.Millisecond); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	_ = f.SetResult(1)
	if v, err := f.ResultTimeout(time.Second); err != nil || v != 1 {
		t.Fatalf("after set: %v, %v", v, err)
	}
}

func TestCallbackOnCompletion(t *testing.T) {
	f := New()
	var got atomic.Value
	f.AddDoneCallback(func(g *Future) { got.Store(g.Value()) })
	_ = f.SetResult("cb")
	if got.Load() != "cb" {
		t.Fatalf("callback saw %v", got.Load())
	}
}

func TestCallbackAfterCompletionRunsImmediately(t *testing.T) {
	f := Completed(3)
	ran := false
	f.AddDoneCallback(func(g *Future) { ran = true })
	if !ran {
		t.Fatal("callback on done future did not run synchronously")
	}
}

func TestCallbacksRunOnce(t *testing.T) {
	f := New()
	var n atomic.Int32
	for i := 0; i < 10; i++ {
		f.AddDoneCallback(func(*Future) { n.Add(1) })
	}
	_ = f.SetResult(nil)
	if n.Load() != 10 {
		t.Fatalf("callbacks ran %d times, want 10", n.Load())
	}
}

// logHook is a DoneHook that appends its name to a shared log.
type logHook struct {
	name string
	log  *[]string
}

func (h *logHook) FutureDone(*Future) { *h.log = append(*h.log, h.name) }

// Hooks and callbacks share one registration list: two hooks with a callback
// between them fire once each, in the order they were registered, and a
// refused second write fires nothing again. A registration made after
// completion fires at once.
func TestHooksAndCallbacksFireInRegistrationOrder(t *testing.T) {
	var log []string
	f := New()
	f.SetDoneHook(&logHook{"hook1", &log})
	f.AddDoneCallback(func(*Future) { log = append(log, "callback") })
	f.SetDoneHook(&logHook{"hook2", &log})
	_ = f.SetResult(nil)
	if f.SetError(errors.New("second write")) != ErrAlreadySet {
		t.Fatal("second write accepted")
	}
	if got := strings.Join(log, ","); got != "hook1,callback,hook2" {
		t.Fatalf("fired %q, want hook1,callback,hook2", got)
	}
	f.SetDoneHook(&logHook{"late", &log})
	if got := strings.Join(log, ","); got != "hook1,callback,hook2,late" {
		t.Fatalf("after a late hook fired %q", got)
	}
}

// countHook is a DoneHook that counts its firings.
type countHook struct{ n atomic.Int32 }

func (h *countHook) FutureDone(*Future) { h.n.Add(1) }

// Registering a callback, or a future's first hook, stores one interface
// value in the future: neither it nor the firing allocates.
func TestRegistrationAllocationFree(t *testing.T) {
	const runs = 100
	var calls int
	cb := func(*Future) { calls++ }
	var h countHook
	for _, tc := range []struct {
		name     string
		register func(*Future)
	}{
		{"callback", func(f *Future) { f.AddDoneCallback(cb) }},
		{"first hook", func(f *Future) { f.SetDoneHook(&h) }},
	} {
		futs := make([]Future, runs+1) // AllocsPerRun adds one warm-up run
		i := 0
		if n := testing.AllocsPerRun(runs, func() {
			f := &futs[i]
			i++
			tc.register(f)
			_ = f.SetResult(nil)
		}); n != 0 {
			t.Errorf("%s: %.2f allocations per registration and firing, want 0", tc.name, n)
		}
	}
	if calls != runs+1 || h.n.Load() != runs+1 {
		t.Fatalf("fired %d callbacks and %d hooks, want %d of each", calls, h.n.Load(), runs+1)
	}
}

// Past the inline slot, registrations go to one list: hooks and callbacks
// alternating, from one registration up to past the list's inline array, fire
// once each in registration order, and so do late ones.
func TestMixedRegistrationsFireInOrder(t *testing.T) {
	for k := 1; k <= 7; k++ {
		var log, want []string
		f := New()
		for i := 0; i < k; i++ {
			name := fmt.Sprintf("r%d", i)
			want = append(want, name)
			if i%2 == 0 {
				f.SetDoneHook(&logHook{name, &log})
			} else {
				f.AddDoneCallback(func(*Future) { log = append(log, name) })
			}
		}
		_ = f.SetResult(k)
		_ = f.SetResult(k + 1)
		f.AddDoneCallback(func(*Future) { log = append(log, "late") })
		want = append(want, "late")
		if got, w := strings.Join(log, ","), strings.Join(want, ","); got != w {
			t.Fatalf("k=%d: fired %q, want %q", k, got, w)
		}
	}
}

// A future's k registrations cost 0 objects for one, then one list holding
// the first two inline and growing by doubling: 1 at k = 2, 2 at k = 3 and 4,
// 3 at k = 5.
func TestRegistrationListAllocations(t *testing.T) {
	const runs = 100
	var h countHook
	cb := func(*Future) { h.n.Add(1) }
	for _, tc := range []struct {
		k    int
		want float64
	}{{1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}} {
		h.n.Store(0)
		futs := make([]Future, runs+1) // AllocsPerRun adds one warm-up run
		i := 0
		n := testing.AllocsPerRun(runs, func() {
			f := &futs[i]
			i++
			for j := 0; j < tc.k; j++ {
				if j%2 == 0 {
					f.SetDoneHook(&h)
				} else {
					f.AddDoneCallback(cb)
				}
			}
			_ = f.SetResult(nil)
		})
		t.Logf("k=%d: %.2f allocations per future", tc.k, n)
		if n > tc.want {
			t.Errorf("k=%d: %.2f allocations per future, want <= %.0f", tc.k, n, tc.want)
		}
		if got := h.n.Load(); got != int32(tc.k*(runs+1)) {
			t.Fatalf("k=%d: %d firings, want %d", tc.k, got, tc.k*(runs+1))
		}
	}
}

// A failed future keeps its error where a resolved one keeps its value; the
// state tells them apart, so a resolved future whose value is an error still
// reads as a value.
func TestValueAndErrorShareOneSlot(t *testing.T) {
	boom := errors.New("boom")
	failed := FromError(boom)
	if v, err := failed.Result(); v != nil || err != boom {
		t.Fatalf("failed Result = %v, %v; want nil, %v", v, err, boom)
	}
	if failed.Value() != nil || failed.Err() != boom {
		t.Fatalf("failed Value, Err = %v, %v", failed.Value(), failed.Err())
	}
	resolved := Completed(boom)
	if v, err := resolved.Result(); v != boom || err != nil {
		t.Fatalf("resolved Result = %v, %v; want %v, nil", v, err, boom)
	}
	if resolved.Value() != boom || resolved.Err() != nil {
		t.Fatalf("resolved Value, Err = %v, %v", resolved.Value(), resolved.Err())
	}
}

// TestFutureFitsOneCacheLine guards the future's layout: every task allocates
// one, and the submitter, the completing worker and the waiter all touch it.
// At 64 bytes on 64-bit it is one size-64 object, which the allocator places
// on one aligned cache line.
func TestFutureFitsOneCacheLine(t *testing.T) {
	n := unsafe.Sizeof(Future{})
	t.Logf("sizeof(Future) = %d", n)
	if n > 64 {
		t.Fatalf("sizeof(Future) = %d, want <= 64", n)
	}
}

// Hooks and callbacks registered from several goroutines while another
// completes the future each fire exactly once: listed ones on the completing
// goroutine, late ones synchronously on their own.
func TestRegistrationsRaceCompletion(t *testing.T) {
	const regs = 8
	for iter := 0; iter < 300; iter++ {
		f := New()
		var hooks [regs]countHook
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := range hooks {
			wg.Add(1)
			go func(h *countHook, asHook bool) {
				defer wg.Done()
				<-start
				if asHook {
					f.SetDoneHook(h)
				} else {
					f.AddDoneCallback(func(*Future) { h.n.Add(1) })
				}
			}(&hooks[i], i%2 == 0)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_ = f.SetResult(iter)
		}()
		close(start)
		wg.Wait()
		for i := range hooks {
			if n := hooks[i].n.Load(); n != 1 {
				t.Fatalf("iteration %d: registration %d fired %d times, want 1", iter, i, n)
			}
		}
	}
}

func TestDoneChanSelect(t *testing.T) {
	f := New()
	select {
	case <-f.DoneChan():
		t.Fatal("done chan fired early")
	default:
	}
	_ = f.SetError(errors.New("x"))
	select {
	case <-f.DoneChan():
	case <-time.After(time.Second):
		t.Fatal("done chan never fired")
	}
}

func TestConcurrentSetExactlyOneWins(t *testing.T) {
	for iter := 0; iter < 100; iter++ {
		f := New()
		var wins atomic.Int32
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if err := f.SetResult(i); err == nil {
					wins.Add(1)
				}
			}(i)
		}
		wg.Wait()
		if wins.Load() != 1 {
			t.Fatalf("iter %d: %d winners, want 1", iter, wins.Load())
		}
	}
}

func TestConcurrentResultReaders(t *testing.T) {
	f := New()
	const readers = 64
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := f.Result()
			if err != nil || v != 99 {
				errs <- fmt.Errorf("got %v, %v", v, err)
			}
		}()
	}
	_ = f.SetResult(99)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestStateString(t *testing.T) {
	cases := map[State]string{Pending: "pending", Resolved: "resolved", Failed: "failed", State(9): "State(9)"}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestFutureString(t *testing.T) {
	f := NewForTask(7)
	if s := f.String(); s != "Future{task=7 pending}" {
		t.Fatalf("pending string = %q", s)
	}
	_ = f.SetResult(1)
	if s := f.String(); s != "Future{task=7 resolved 1}" {
		t.Fatalf("resolved string = %q", s)
	}
	g := FromError(errors.New("e"))
	if s := g.String(); s != "Future{task=-1 failed e}" {
		t.Fatalf("failed string = %q", s)
	}
}

// Property: for any sequence of values, a future set with value v always
// yields exactly v, and repeated Result calls are stable.
func TestQuickSingleAssignmentStability(t *testing.T) {
	prop := func(v int64, repeats uint8) bool {
		f := New()
		if f.SetResult(v) != nil {
			return false
		}
		n := int(repeats%16) + 1
		for i := 0; i < n; i++ {
			got, err := f.Result()
			if err != nil || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
