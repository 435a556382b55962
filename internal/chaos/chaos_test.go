package chaos

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// pump drives n hits through every armed point of inj, exercising each
// point's helper the way product code does.
func pump(inj *Injector, n int) {
	restore := Enable(inj)
	defer restore()
	frame := make([]byte, 64)
	for i := 0; i < n; i++ {
		_ = Frame(PointClientSend, "", frame, func([]byte) error { return nil })
		_ = Frame(PointIxTasks, "", frame, func([]byte) error { return nil })
		func() {
			defer func() { _ = recover() }()
			Exec(PointExecRun, "pool/thread-0")
		}()
		_ = Fail(PointSubmitFail, "pool")
		Sleep(PointLaneDelay, "pool")
		_ = Kill(PointMgrKill, "mgr-1")
	}
}

// scheduleKey is the run-independent part of an event: everything but the
// observational detail.
func scheduleKey(e Event) string {
	return fmt.Sprintf("%s/r%d#%d %s %v", e.Point, e.Rule, e.Hit, e.Act, e.Delay)
}

func testPlan() Plan {
	return Plan{
		{Point: PointClientSend, Act: ActDrop, Prob: 0.1},
		{Point: PointClientSend, Act: ActCorrupt, Prob: 0.1},
		{Point: PointIxTasks, Act: ActDup, Prob: 0.2},
		{Point: PointExecRun, Act: ActPanic, Prob: 0.15},
		{Point: PointSubmitFail, Act: ActFail, Prob: 0.2},
		{Point: PointLaneDelay, Act: ActDelay, Prob: 0.3, Delay: time.Microsecond},
		{Point: PointMgrKill, Act: ActKill, Prob: 0.5, Max: 2},
	}
}

// TestScheduleDeterministic is the reproducibility contract: two injectors
// armed with the same seed and plan, driven through the same hits, log the
// identical event sequence.
func TestScheduleDeterministic(t *testing.T) {
	a, b := New(42, testPlan()), New(42, testPlan())
	pump(a, 500)
	pump(b, 500)
	ea, eb := a.Events(), b.Events()
	if len(ea) == 0 {
		t.Fatal("no events fired in 500 hits — plan probabilities broken")
	}
	if !reflect.DeepEqual(ea, eb) {
		t.Fatalf("same seed diverged:\n%v\nvs\n%v", ea, eb)
	}
}

// TestScheduleSeedSensitive: different seeds give different schedules.
func TestScheduleSeedSensitive(t *testing.T) {
	a, b := New(1, testPlan()), New(2, testPlan())
	pump(a, 500)
	pump(b, 500)
	ka := make([]string, 0)
	for _, e := range a.Events() {
		ka = append(ka, scheduleKey(e))
	}
	kb := make([]string, 0)
	for _, e := range b.Events() {
		kb = append(kb, scheduleKey(e))
	}
	if reflect.DeepEqual(ka, kb) {
		t.Fatal("seeds 1 and 2 produced identical schedules")
	}
}

// TestScheduleIndependentOfInterleaving: the decision for hit n at a point
// does not depend on how many hits other points have taken.
func TestScheduleIndependentOfInterleaving(t *testing.T) {
	plan := testPlan()
	a, b := New(7, plan), New(7, plan)

	ra := Enable(a)
	for i := 0; i < 200; i++ {
		_ = Fail(PointSubmitFail, "x")
	}
	ra()

	rb := Enable(b)
	for i := 0; i < 200; i++ {
		// Interleave hits at other points between the SubmitFail hits.
		_ = Kill(PointMgrKill, "mgr")
		_ = Fail(PointSubmitFail, "x")
		Sleep(PointLaneDelay, "x")
	}
	rb()

	filter := func(evs []Event) []string {
		var out []string
		for _, e := range evs {
			if e.Point == PointSubmitFail {
				out = append(out, scheduleKey(e))
			}
		}
		return out
	}
	if !reflect.DeepEqual(filter(a.Events()), filter(b.Events())) {
		t.Fatalf("SubmitFail schedule depends on other points' traffic:\n%v\nvs\n%v",
			filter(a.Events()), filter(b.Events()))
	}
}

func TestMaxBoundsFires(t *testing.T) {
	inj := New(3, Plan{{Point: PointMgrKill, Act: ActKill, Prob: 1.0, Max: 2}})
	restore := Enable(inj)
	defer restore()
	kills := 0
	for i := 0; i < 50; i++ {
		if Kill(PointMgrKill, "mgr") {
			kills++
		}
	}
	if kills != 2 {
		t.Fatalf("kills = %d, want exactly Max=2", kills)
	}
	if inj.Fires(PointMgrKill) != 2 || inj.points[PointMgrKill][0].hits.Load() != 50 {
		t.Fatalf("fires=%d hits=%d", inj.Fires(PointMgrKill), inj.points[PointMgrKill][0].hits.Load())
	}
}

func TestMatchFilters(t *testing.T) {
	inj := New(5, Plan{{Point: PointExecRun, Act: ActStall, Prob: 1.0, Match: "pool/"}})
	restore := Enable(inj)
	defer restore()
	Exec(PointExecRun, "mgr-1/w0") // unmatched: no fire
	Exec(PointExecRun, "pool/thread-3")
	evs := inj.Events()
	if len(evs) != 1 || evs[0].Detail != "pool/thread-3" {
		t.Fatalf("events = %v, want one fire for the matched worker", evs)
	}
}

// TestMatchedHitScheduleDeterministic: a Match-scoped rule's schedule is a
// pure function of its own matched-hit sequence — unmatched traffic at the
// same point, however much and however interleaved, cannot shift which
// matched hit fires. This is what makes targeted scenarios ("kill manager
// X's 3rd dequeue") reproducible from their seed.
func TestMatchedHitScheduleDeterministic(t *testing.T) {
	plan := Plan{{Point: PointExecRun, Act: ActStall, Prob: 0.3, Match: "pool/"}}
	run := func(noise int) []string {
		inj := New(23, plan)
		restore := Enable(inj)
		defer restore()
		for i := 0; i < 100; i++ {
			for j := 0; j < noise; j++ {
				Exec(PointExecRun, "mgr-7/w0") // unmatched traffic
			}
			Exec(PointExecRun, "pool/thread-1")
		}
		var keys []string
		for _, e := range inj.Events() {
			keys = append(keys, scheduleKey(e))
		}
		return keys
	}
	quiet, noisy := run(0), run(5)
	if len(quiet) == 0 {
		t.Fatal("no fires in 100 matched hits at Prob 0.3")
	}
	if !reflect.DeepEqual(quiet, noisy) {
		t.Fatalf("unmatched traffic shifted the matched schedule:\n%v\nvs\n%v", quiet, noisy)
	}
}

func TestFrameActions(t *testing.T) {
	mk := func(act Action) (*Injector, func()) {
		inj := New(9, Plan{{Point: PointClientSend, Act: act, Prob: 1.0, Delay: time.Microsecond}})
		return inj, Enable(inj)
	}
	frame := make([]byte, 32)
	for i := range frame {
		frame[i] = byte(i + 1)
	}

	// Drop: send never called, nil error.
	_, restore := mk(ActDrop)
	calls := 0
	if err := Frame(PointClientSend, "", frame, func([]byte) error { calls++; return nil }); err != nil || calls != 0 {
		t.Fatalf("drop: calls=%d err=%v", calls, err)
	}
	restore()

	// Dup: send called twice with identical bytes.
	_, restore = mk(ActDup)
	calls = 0
	_ = Frame(PointClientSend, "", frame, func(f []byte) error {
		calls++
		if !reflect.DeepEqual(f, frame) {
			t.Fatalf("dup mutated frame")
		}
		return nil
	})
	if calls != 2 {
		t.Fatalf("dup: calls=%d", calls)
	}
	restore()

	// Corrupt: exactly one body byte differs, caller's buffer untouched.
	_, restore = mk(ActCorrupt)
	orig := append([]byte(nil), frame...)
	var got []byte
	_ = Frame(PointClientSend, "", frame, func(f []byte) error {
		got = append([]byte(nil), f...)
		return nil
	})
	restore()
	if !reflect.DeepEqual(frame, orig) {
		t.Fatal("corrupt mutated the caller's frame")
	}
	diff := 0
	for i := range got {
		if got[i] != orig[i] {
			diff++
			if i < len(orig)/2 {
				t.Fatalf("corrupt touched front-half byte %d (headers live there)", i)
			}
		}
	}
	if diff != 1 {
		t.Fatalf("corrupt changed %d bytes, want 1", diff)
	}

	// Truncate: half the frame.
	_, restore = mk(ActTruncate)
	_ = Frame(PointClientSend, "", frame, func(f []byte) error {
		got = append([]byte(nil), f...)
		return nil
	})
	restore()
	if len(got) != len(frame)/2 {
		t.Fatalf("truncate len=%d (orig %d)", len(got), len(frame))
	}

	// Delay: frame passes through unchanged.
	_, restore = mk(ActDelay)
	calls = 0
	_ = Frame(PointClientSend, "", frame, func(f []byte) error { calls++; return nil })
	restore()
	if calls != 1 {
		t.Fatalf("delay: calls=%d", calls)
	}
}

func TestExecPanics(t *testing.T) {
	inj := New(11, Plan{{Point: PointExecRun, Act: ActPanic, Prob: 1.0}})
	restore := Enable(inj)
	defer restore()
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("Exec did not panic")
		}
	}()
	Exec(PointExecRun, "w0")
}

func TestFailWrapsErrInjected(t *testing.T) {
	inj := New(13, Plan{{Point: PointSubmitFail, Act: ActFail, Prob: 1.0}})
	restore := Enable(inj)
	defer restore()
	if err := Fail(PointSubmitFail, "lane"); !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v", err)
	}
}

func TestFailClassReturnsTypedError(t *testing.T) {
	inj := New(17, Plan{{Point: PointSubmitFail, Act: ActFailClass, Class: "executor-lost", Prob: 1.0}})
	restore := Enable(inj)
	defer restore()
	err := Fail(PointSubmitFail, "lane")
	var ce *ClassError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *ClassError", err)
	}
	if ce.Class != "executor-lost" {
		t.Fatalf("class = %q", ce.Class)
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatal("ClassError does not unwrap to ErrInjected")
	}
	if !strings.Contains(ce.Error(), "[class=executor-lost]") {
		t.Fatalf("message %q missing the class marker", ce.Error())
	}
}

func TestExecFailClassReturnsTypedError(t *testing.T) {
	inj := New(19, Plan{{Point: PointExecRun, Act: ActFailClass, Class: "transient-wire", Prob: 1.0}})
	restore := Enable(inj)
	defer restore()
	err := Exec(PointExecRun, "w0")
	var ce *ClassError
	if !errors.As(err, &ce) || ce.Class != "transient-wire" {
		t.Fatalf("err = %v", err)
	}
	// Plain ActFail through Exec also surfaces as an error now.
	inj2 := New(19, Plan{{Point: PointExecRun, Act: ActFail, Prob: 1.0}})
	restore2 := Enable(inj2)
	defer restore2()
	if err := Exec(PointExecRun, "w0"); !errors.Is(err, ErrInjected) {
		t.Fatalf("ActFail through Exec = %v", err)
	}
}

func TestDisabledIsInert(t *testing.T) {
	Disable()
	if Enabled() || active.Load() != nil {
		t.Fatal("injector active after Disable")
	}
	if Kill(PointMgrKill, "x") || Fail(PointSubmitFail, "x") != nil {
		t.Fatal("disabled points fired")
	}
	calls := 0
	if err := Frame(PointClientSend, "", []byte{1}, func([]byte) error { calls++; return nil }); err != nil || calls != 1 {
		t.Fatal("disabled Frame did not pass through")
	}
}

// TestDisabledZeroAlloc pins the hot-path contract: a disabled fault point
// allocates nothing.
func TestDisabledZeroAlloc(t *testing.T) {
	Disable()
	frame := []byte{1, 2, 3}
	send := func([]byte) error { return nil }
	if n := testing.AllocsPerRun(1000, func() {
		_ = Frame(PointClientSend, "", frame, send)
		Exec(PointExecRun, "w")
		_ = Fail(PointSubmitFail, "l")
		Sleep(PointLaneDelay, "l")
		_ = Kill(PointMgrKill, "m")
	}); n != 0 {
		t.Fatalf("disabled fault points allocate %v per run", n)
	}
}

func TestEnableRestores(t *testing.T) {
	a := New(1, nil)
	ra := Enable(a)
	b := New(2, nil)
	rb := Enable(b)
	if active.Load() != b {
		t.Fatal("b not active")
	}
	rb()
	if active.Load() != a {
		t.Fatal("restore did not reinstate a")
	}
	ra()
	if active.Load() != nil {
		t.Fatal("restore did not clear")
	}
}

func TestEventOrderCanonical(t *testing.T) {
	inj := New(17, Plan{
		{Point: PointSubmitFail, Act: ActFail, Prob: 1.0},
		{Point: PointLaneDelay, Act: ActDelay, Prob: 1.0},
	})
	restore := Enable(inj)
	// Interleave: lane, submit, lane, submit.
	Sleep(PointLaneDelay, "a")
	_ = Fail(PointSubmitFail, "b")
	Sleep(PointLaneDelay, "c")
	_ = Fail(PointSubmitFail, "d")
	restore()
	evs := inj.Events()
	// Canonical order sorts by point name, then rule, then hit:
	// "dfk.lane" < "dfk.submit".
	want := []string{
		fmt.Sprintf("%s/r1#0 delay 0s", PointLaneDelay),
		fmt.Sprintf("%s/r1#1 delay 0s", PointLaneDelay),
		fmt.Sprintf("%s/r0#0 fail 0s", PointSubmitFail),
		fmt.Sprintf("%s/r0#1 fail 0s", PointSubmitFail),
	}
	if len(evs) != len(want) {
		t.Fatalf("events = %v", evs)
	}
	for i := range want {
		if scheduleKey(evs[i]) != want[i] {
			t.Fatalf("event %d = %q, want %q", i, scheduleKey(evs[i]), want[i])
		}
	}
}

// TestAfterPinsExactHit: After + Prob 1 + Max 1 fires at exactly the After-th
// matched hit — earlier hits advance the counter but never roll. This is the
// contract the WAL crash matrix leans on to stop the log at one chosen record
// boundary.
func TestAfterPinsExactHit(t *testing.T) {
	inj := New(11, Plan{{Point: PointSubmitFail, Act: ActFail, Prob: 1.0, Max: 1, After: 3}})
	restore := Enable(inj)
	defer restore()
	for i := 0; i < 10; i++ {
		err := Fail(PointSubmitFail, "lane")
		if i == 3 && err == nil {
			t.Fatalf("hit %d should have fired", i)
		}
		if i != 3 && err != nil {
			t.Fatalf("hit %d fired, want only hit 3: %v", i, err)
		}
	}
	if inj.Fires(PointSubmitFail) != 1 || inj.points[PointSubmitFail][0].hits.Load() != 10 {
		t.Fatalf("fires=%d hits=%d", inj.Fires(PointSubmitFail), inj.points[PointSubmitFail][0].hits.Load())
	}
}

// TestCrashHelperActions: Crash maps ActKill to (true, nil) and ActFail to
// (false, ErrInjected), consuming exactly one schedule decision per call.
func TestCrashHelperActions(t *testing.T) {
	inj := New(13, Plan{
		{Point: PointWALAppend, Act: ActKill, Prob: 1.0, Max: 1, After: 1},
		{Point: PointWALFsync, Act: ActFail, Prob: 1.0, Max: 1},
	})
	restore := Enable(inj)
	defer restore()
	if kill, err := Crash(PointWALAppend, "submit"); kill || err != nil {
		t.Fatalf("hit 0 gated by After: kill=%v err=%v", kill, err)
	}
	if kill, err := Crash(PointWALAppend, "submit"); !kill || err != nil {
		t.Fatalf("hit 1 should kill: kill=%v err=%v", kill, err)
	}
	if kill, err := Crash(PointWALAppend, "submit"); kill || err != nil {
		t.Fatalf("Max=1 exhausted, hit 2 must be clean: kill=%v err=%v", kill, err)
	}
	kill, err := Crash(PointWALFsync, "sync")
	if kill || !errors.Is(err, ErrInjected) {
		t.Fatalf("ActFail through Crash: kill=%v err=%v", kill, err)
	}
}
