package task

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/fair"
	"repro/internal/future"
	"repro/internal/serialize"
)

func TestNewRecordInitialState(t *testing.T) {
	r := NewRecord(1, "app", []any{1, 2}, nil)
	if r.State() != Unsched {
		t.Fatalf("state = %v", r.State())
	}
	if r.Future == nil || r.Future.TaskID != 1 {
		t.Fatal("future not bound to task id")
	}
}

func TestLegalTransitionChain(t *testing.T) {
	r := NewRecord(1, "a", nil, nil)
	for _, s := range []State{Pending, Launched, Done} {
		if err := r.SetState(s); err != nil {
			t.Fatalf("SetState(%v): %v", s, err)
		}
	}
	if r.State() != Done {
		t.Fatalf("final state = %v", r.State())
	}
}

func TestIllegalTransitionRejected(t *testing.T) {
	r := NewRecord(1, "a", nil, nil)
	if err := r.SetState(Retrying); err == nil {
		t.Fatal("Unsched -> Retrying allowed")
	}
	if err := r.SetState(Done); err == nil {
		t.Fatal("Unsched -> Done allowed")
	}
}

func TestTerminalStatesSticky(t *testing.T) {
	r := NewRecord(1, "a", nil, nil)
	_ = r.SetState(Pending)
	_ = r.SetState(Launched)
	_ = r.SetState(Done)
	if err := r.SetState(Launched); err == nil {
		t.Fatal("transition out of Done allowed")
	}
	if err := r.SetState(Done); err != nil {
		t.Fatalf("idempotent set to same state should be nil: %v", err)
	}
}

func TestRetryLoopTransitions(t *testing.T) {
	r := NewRecord(1, "a", nil, nil)
	_ = r.SetState(Pending)
	_ = r.SetState(Launched)
	if err := r.SetState(Retrying); err != nil {
		t.Fatalf("Launched -> Retrying: %v", err)
	}
	if err := r.SetState(Launched); err != nil {
		t.Fatalf("Retrying -> Launched: %v", err)
	}
	if err := r.SetState(Retrying); err != nil {
		t.Fatalf("second Launched -> Retrying: %v", err)
	}
	if err := r.SetState(Failed); err != nil {
		t.Fatalf("Retrying -> Failed: %v", err)
	}
}

func TestMemoizedPath(t *testing.T) {
	r := NewRecord(1, "a", nil, nil)
	if err := r.SetState(Memoized); err != nil {
		t.Fatalf("Unsched -> Memoized: %v", err)
	}
	if !r.State().Terminal() {
		t.Fatal("Memoized should be terminal")
	}
}

// attempts reads the charged attempt count under the record's lock.
func attempts(r *Record) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.attempts
}

func TestAttemptsCounter(t *testing.T) {
	r, _ := Create(1, "a", nil, nil, Options{MaxRetries: 1})
	defer r.Exit()
	if attempts(r) != 0 {
		t.Fatal("fresh record has attempts")
	}
	if r.MaxRetries != 1 {
		t.Fatal("retry budget lost")
	}
	// A forgiven failure leaves the budget alone; a charged one consumes it.
	if from, ok := r.Retry(false); !ok || from != Pending || attempts(r) != 0 {
		t.Fatalf("uncharged Retry = %v, %v (attempts %d)", from, ok, attempts(r))
	}
	if _, ok := r.Retry(true); !ok || attempts(r) != 1 {
		t.Fatalf("first charged Retry refused (attempts %d)", attempts(r))
	}
	if _, ok := r.Retry(true); ok {
		t.Fatal("Retry allowed past the budget")
	}
}

func TestDepCounter(t *testing.T) {
	r, gen := Create(1, "a", nil, nil, Options{})
	r.SetPendingDeps(gen, 2)
	if r.DepDone(gen + 1) {
		t.Fatal("an edge of another generation counted")
	}
	if r.DepDone(gen) {
		t.Fatal("first of two edges reported last")
	}
	if !r.DepDone(gen) {
		t.Fatal("last edge not reported")
	}
	if r.holds != 2 {
		t.Fatalf("holds = %d after the last edge, want the creator's and its own", r.holds)
	}
	r.Exit()
	// Underflow guard: a countdown at zero stays there.
	if r.DepDone(gen) || uint32(r.deps.Load()) != 0 {
		t.Fatalf("edge past zero: reported last or count %d", uint32(r.deps.Load()))
	}

	// A task that concluded before its last input resolved is not launched:
	// the last edge finds it terminal and takes no hold.
	r.SetPendingDeps(gen, 1)
	if _, ok := r.Finish(Failed); !ok {
		t.Fatal("Finish refused")
	}
	if r.DepDone(gen) || r.holds != 1 {
		t.Fatalf("last edge of a failed task reported, holds = %d", r.holds)
	}
	r.Exit()
}

// After a record is recycled, an edge callback of its old task neither
// counts against nor launches the record's next occupant.
func TestDepDoneStaleGeneration(t *testing.T) {
	r, old := Create(1, "a", nil, nil, Options{})
	r.SetPendingDeps(old, 3)
	if r.DepDone(old) {
		t.Fatal("first of three edges reported last")
	}
	if _, ok := r.Finish(Failed); !ok {
		t.Fatal("Finish refused")
	}
	r.Retire()
	r.Exit() // the creator's hold was the last: the record is recycled
	if r.DepDone(old) || r.DepDone(old) {
		t.Fatal("a recycled record counted its old task's edges down to zero")
	}
	// The next occupant, as Create leaves a record it draws from the pool
	// (drawing it through the pool would depend on sync.Pool returning it).
	r.mu.Lock()
	r.ID, r.holds = 2, 1
	_ = r.moveLocked(Pending)
	gen := r.gen
	r.mu.Unlock()
	if gen == old {
		t.Fatal("recycling kept the generation")
	}
	r.SetPendingDeps(gen, 2)
	for i := 0; i < 3; i++ {
		if r.DepDone(old) {
			t.Fatal("old generation reported last on the new occupant")
		}
	}
	if got := r.deps.Load(); got != uint64(gen)<<32|2 {
		t.Fatalf("new occupant's countdown = %#x, want %#x", got, uint64(gen)<<32|2)
	}
	if r.DepDone(gen) || !r.DepDone(gen) {
		t.Fatal("new occupant's own edges miscounted")
	}
	r.Exit()
	if _, ok := r.Finish(Memoized); !ok {
		t.Fatal("Finish refused")
	}
	r.Retire()
	r.Exit()
}

func TestAccessors(t *testing.T) {
	r, _ := Create(5, "app", nil, nil, Options{})
	r.Route("htex") // drops the creator's hold
	if _, _, ex := r.Attempt(); ex != "htex" {
		t.Fatal("executor lost")
	}
	r.SetMemoKey("k")
	if r.memoKey != "k" {
		t.Fatal("memo key lost")
	}
	if !strings.Contains(r.String(), "app") {
		t.Fatalf("String() = %q", r.String())
	}
}

func TestStateStringAndTerminal(t *testing.T) {
	if Done.String() != "done" || Pending.String() != "pending" {
		t.Fatal("state names wrong")
	}
	if State(99).String() != "State(99)" {
		t.Fatal("unknown state name")
	}
	for _, s := range []State{Done, Failed, Memoized} {
		if !s.Terminal() {
			t.Errorf("%v not terminal", s)
		}
	}
	for _, s := range []State{Unsched, Pending, Launched, Retrying} {
		if s.Terminal() {
			t.Errorf("%v terminal", s)
		}
	}
}

// Of n concurrent edges exactly one reports last, and it alone takes a hold.
func TestConcurrentStateAndCounters(t *testing.T) {
	const n = 100
	r, gen := Create(1, "a", nil, nil, Options{})
	r.SetPendingDeps(gen, n)
	var last atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r.DepDone(gen) {
				last.Add(1)
			}
		}()
	}
	wg.Wait()
	if last.Load() != 1 || uint32(r.deps.Load()) != 0 || r.holds != 2 {
		t.Fatalf("%d edges reported last, count %d, holds %d", last.Load(), uint32(r.deps.Load()), r.holds)
	}
}

// Property: any random walk through SetState never lands in a state that the
// machine forbids, and once terminal the state never changes.
func TestQuickStateMachineSafety(t *testing.T) {
	prop := func(steps []uint8) bool {
		r := NewRecord(1, "a", nil, nil)
		for _, b := range steps {
			target := State(int(b) % len(stateNames))
			prev := r.State()
			err := r.SetState(target)
			if prev.Terminal() && err == nil && target != prev {
				return false // escaped a terminal state
			}
			if err == nil && target != prev {
				if !prev.canMoveTo(target) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestFinishRaceAndStaleStraggler races every way a pooled record is
// concluded and probed: holders calling Finish(Done) and Finish(Failed) at
// once — same-state repeats included — while the creator drops its hold and a
// straggler with a previous generation's stamp calls every stage that takes
// one. Exactly one Finish may win (the winner retires the record, and a second
// Retire panics), the straggler must be refused everywhere, and the record
// must be recycled exactly once: its generation moves on by one.
func TestFinishRaceAndStaleStraggler(t *testing.T) {
	const finishers = 8
	for iter := 0; iter < 300; iter++ {
		r, gen := Create(int64(iter), "race", nil, nil, Options{})
		stale := gen - 1
		var wins atomic.Int32
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < finishers; i++ {
			// Each finisher holds the record before the race starts, as every
			// terminal path of the DFK does.
			if !r.Enter(gen) {
				t.Fatal("live generation refused")
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				to := Done
				if i%2 == 1 {
					to = Failed
				}
				if fin, ok := r.Finish(to); ok {
					if fin.From != Pending {
						t.Errorf("winner saw From = %v", fin.From)
					}
					wins.Add(1)
					r.Retire()
				}
				r.Exit()
			}(i)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for k := 0; k < 20; k++ {
				if r.Enter(stale) {
					t.Error("Enter admitted a stale generation")
				}
				if _, ok, _ := r.Launch(stale); ok {
					t.Error("Launch admitted a stale generation")
				}
				if _, _, _, ok := r.Outcome(stale); ok {
					t.Error("Outcome admitted a stale generation")
				}
			}
		}()
		close(start)
		r.Exit() // the creator's hold, dropped while the finishers race
		wg.Wait()
		if n := wins.Load(); n != 1 {
			t.Fatalf("iteration %d: %d Finish calls won, want exactly 1", iter, n)
		}
		// Recycled once: the concluded generation is now stale to every stage,
		// and the next one is exactly gen+1.
		if _, ok, _ := r.Launch(gen); ok {
			t.Fatal("Launch admitted the recycled generation")
		}
		if _, _, _, ok := r.Outcome(gen); ok {
			t.Fatal("Outcome admitted the recycled generation")
		}
		if r.Enter(gen) || !r.Enter(gen+1) {
			t.Fatalf("iteration %d: record not recycled exactly once", iter)
		}
		r.Exit()
	}
}

// TestLifecycleStages walks one record through every stage in order and checks
// what each critical section reads, writes and refuses.
func TestLifecycleStages(t *testing.T) {
	g, _, gerr := fair.NewAdmission(0, nil, fair.Block).AdmitGate(context.Background(), "t")
	if gerr != nil {
		t.Fatal(gerr)
	}
	o := Options{Hints: []string{"tp"}, Tenant: "t", Weight: 3, MaxRetries: 2, Priority: 5, Gate: g}
	r, gen := Create(7, "app", []any{1}, nil, o)
	if r.State() != Pending || r.Tenant != "t" || r.Weight != 3 || r.MaxRetries != 2 || r.Priority != 5 ||
		r.Gate != g || len(r.Hints) != 1 {
		t.Fatalf("Create: state %v, options %+v", r.State(), r.Options)
	}
	stop := func() bool { return true }
	if !r.Watch(stop) {
		t.Fatal("Watch refused a live record")
	}
	payload, err := serialize.EncodeArgs([]any{1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer payload.Release()
	af := future.New()
	if !r.Arm(payload, 9, af, 7) {
		t.Fatal("Arm refused a live record")
	}
	if !r.Enter(gen) {
		t.Fatal("Enter refused the live generation")
	}
	r.Route("tp") // drops the router's hold; the creator's remains
	if gotAf, wire, label := r.Attempt(); gotAf != af || wire != 7 || label != "tp" {
		t.Fatalf("Attempt = %v, %d, %q", gotAf, wire, label)
	}
	if from, ok, err := r.Launch(gen); from != Pending || !ok || err != nil {
		t.Fatalf("Launch = %v, %v, %v", from, ok, err)
	}
	if from, ok, err := r.Launch(gen); from != Launched || !ok || err != nil {
		t.Fatalf("second Launch = %v, %v, %v (a launched task is left as it is)", from, ok, err)
	}
	r.SetMemoKey("k")
	terminal, memoKey, label, ok := r.Outcome(gen)
	if terminal || memoKey != "k" || label != "tp" || !ok {
		t.Fatalf("Outcome = %v, %q, %q, %v", terminal, memoKey, label, ok)
	}
	if from, ok := r.Retry(true); from != Launched || !ok || r.State() != Retrying || attempts(r) != 1 {
		t.Fatalf("Retry = %v, %v (state %v, attempts %d)", from, ok, r.State(), attempts(r))
	}
	fin, ok := r.Finish(Failed)
	if !ok || fin.From != Retrying || fin.Executor != "tp" || fin.WALKey != 9 || fin.Payload != payload || fin.CancelStop == nil {
		t.Fatalf("Finish = %+v, %v", fin, ok)
	}
	// A concluded record refuses every further stage, a same-state Finish included.
	if _, ok := r.Finish(Failed); ok {
		t.Fatal("second Finish won")
	}
	if _, ok := r.Finish(Pending); ok {
		t.Fatal("Finish accepted a non-terminal state")
	}
	if r.Arm(payload, 9, future.New(), 8) || r.Watch(stop) {
		t.Fatal("Arm or Watch accepted a terminal record")
	}
	if _, ok := r.Retry(false); ok {
		t.Fatal("Retry allowed on a terminal record")
	}
	if _, ok, err := r.Launch(gen); !ok || err == nil {
		t.Fatalf("Launch on a terminal record: ok %v, err %v", ok, err)
	}
	if terminal, _, _, _ := r.Outcome(gen); !terminal {
		t.Fatal("Outcome missed the terminal state")
	}
	r.Exit() // Outcome's hold
	r.Exit() // the later Outcome's hold
	r.Retire()
	r.Exit() // the creator's hold: the last one out recycles
	if r.Enter(gen) {
		t.Fatal("recycled generation still admitted")
	}
}

// testWaiter is an InputWaiter that does what the DFK does: a failed input
// concludes the task and retires its record, and the last resolved input
// launches it (counted here; the record stays Pending).
type testWaiter struct{ launches, failures atomic.Int32 }

func (w *testWaiter) InputsReady(*Record, uint32) { w.launches.Add(1) }

func (w *testWaiter) InputFailed(r *Record, _ *future.Future) {
	w.failures.Add(1)
	if _, ok := r.Finish(Failed); ok {
		r.Retire()
	}
}

// generation reads r's generation stamp.
func generation(r *Record) uint32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gen
}

var errInput = errors.New("input failed")

// TestFailedInputKeepsRecordUntilLastInput: one of a record's two inputs
// fails, and the task fails and retires while nothing holds the record. The
// other input is still registered on it, so the record keeps its generation
// until that input fires; then it is recycled exactly once, and the late
// input launches nothing. With the failing input second, that input is the
// one that recycles it.
func TestFailedInputKeepsRecordUntilLastInput(t *testing.T) {
	for _, failFirst := range []bool{true, false} {
		r, gen := Create(1, "a", nil, nil, Options{})
		var w testWaiter
		r.WaitInputs(gen, 2, &w)
		failing, late := future.New(), future.New()
		failing.SetDoneHook(r)
		late.SetDoneHook(r)
		r.Exit() // the creator's hold
		if !failFirst {
			_ = late.SetResult(1)
			if generation(r) != gen || w.launches.Load() != 0 {
				t.Fatalf("one of two inputs resolved: generation %d (want %d), %d launches",
					generation(r), gen, w.launches.Load())
			}
		}
		_ = failing.SetError(errInput)
		if failFirst {
			r.mu.Lock()
			g, retired, holds, state, id := r.gen, r.retired, r.holds, r.state, r.ID
			r.mu.Unlock()
			if g != gen || !retired || holds != 0 || state != Failed || id != 1 {
				t.Fatalf("after the failed input: generation %d (want %d), retired %v, holds %d, %v, id %d",
					g, gen, retired, holds, state, id)
			}
			_ = late.SetResult(1)
		}
		if g := generation(r); g != gen+1 {
			t.Fatalf("failFirst %v: generation %d after both inputs, want %d (recycled exactly once)", failFirst, g, gen+1)
		}
		if w.launches.Load() != 0 || w.failures.Load() != 1 {
			t.Fatalf("failFirst %v: %d launches and %d failures, want 0 and 1", failFirst, w.launches.Load(), w.failures.Load())
		}
		if r.Enter(gen) {
			t.Fatal("the recycled generation admitted a hold")
		}
	}
}

// TestInputsRaceRecycleOnce races a record's two inputs, one of them failing,
// against their registration and the creator dropping its hold: an input may
// fire inside SetDoneHook or on its own goroutine, before or after the other.
// Whatever the order, the task fails once, never launches, and its record is
// recycled exactly once.
func TestInputsRaceRecycleOnce(t *testing.T) {
	for iter := 0; iter < 300; iter++ {
		r, gen := Create(int64(iter), "race", nil, nil, Options{})
		var w testWaiter
		r.WaitInputs(gen, 2, &w)
		failing, late := future.New(), future.New()
		var wg sync.WaitGroup
		start := make(chan struct{})
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			_ = failing.SetError(errInput)
		}()
		go func() {
			defer wg.Done()
			<-start
			_ = late.SetResult(iter)
		}()
		close(start)
		failing.SetDoneHook(r)
		late.SetDoneHook(r)
		r.Exit()
		wg.Wait()
		if w.launches.Load() != 0 || w.failures.Load() != 1 {
			t.Fatalf("iteration %d: %d launches and %d failures, want 0 and 1", iter, w.launches.Load(), w.failures.Load())
		}
		if r.Enter(gen) || !r.Enter(gen+1) {
			t.Fatalf("iteration %d: record not recycled exactly once", iter)
		}
		r.Exit()
	}
}
