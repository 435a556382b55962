// Package chaos is the deterministic fault-injection plane. Product code is
// threaded with named fault points — wire legs wrap their frame sends in
// Frame, executors consult Exec/Kill before running a task, the dispatch
// pipeline consults Fail/Sleep — and each point is a no-op behind one atomic
// pointer load unless a test (or parsl-bench chaos) has installed an
// Injector. The disabled path allocates nothing and takes single-digit
// nanoseconds (pinned by BenchmarkDisabled*), so the points stay in
// production builds permanently.
//
// # Determinism
//
// An Injector's fault schedule is a pure function of (seed, point, rule
// index, matched-hit index): a rule's nth eligible hit rolls splitmix64 over
// those inputs, so the same seed always yields the same decision sequence
// for every rule, independent of wall-clock time, goroutine ids, unmatched
// traffic at the same point, or what other points are doing. Concurrency can
// change *how many* hits a rule receives in a given run (a retry resubmits,
// an extra frame crosses the wire), but never what decision hit n gets — so
// a failing CI seed replays the identical schedule locally, and two runs of
// one seed agree on the common prefix of every rule's event sequence.
// Events() returns the log in canonical (point, rule, hit) order for exactly
// that comparison.
//
// The active injector is process-global (fault points live in hot paths that
// cannot carry a handle), so tests that Enable one must not run in parallel
// with other chaos tests in the same package; Enable returns a restore
// function for defer.
package chaos

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Point names one fault-injection site threaded through the product code.
type Point string

// The named fault points. Wire legs take drop/delay/dup/corrupt/truncate;
// kill and exec points take kill/panic/stall; the dispatch points take
// fail/delay.
const (
	// PointClientSend is the HTEX client → interchange TASKB leg.
	PointClientSend Point = "htex.client.send"
	// PointIxTasks is the interchange → manager TASKS leg.
	PointIxTasks Point = "htex.ix.tasks"
	// PointIxResults is the interchange → client RESULTS relay leg.
	PointIxResults Point = "htex.ix.results"
	// PointMgrResults is the manager → interchange RESULTS leg.
	PointMgrResults Point = "htex.mgr.results"
	// PointMgrKill abruptly kills a manager (no BYE) as it dequeues a task.
	PointMgrKill Point = "htex.mgr.kill"
	// PointIxKill abruptly kills one interchange shard (router closed, no
	// goodbye to anyone) as it processes a frame. The hit detail is the
	// shard label ("htex[2]"), so Match pins the kill to one shard and the
	// failover invariant — only that shard's outstanding set requeues — is
	// seed-reproducible.
	PointIxKill Point = "htex.ix.kill"
	// PointExecRun fires inside the shared execution kernel, immediately
	// before the app body: ActPanic raises a real panic (exercising the
	// kernel's recovery sandbox), ActStall sleeps. The hit detail is the
	// worker id ("pool/thread-0", "mgr-b0-1/w0"), so Match can target one
	// executor class.
	PointExecRun Point = "exec.run"
	// PointSubmitFail fails an attempt at the DFK lane-submission boundary,
	// exercising the retry path without any executor involvement.
	PointSubmitFail Point = "dfk.submit"
	// PointLaneDelay delays one DFK lane drain cycle.
	PointLaneDelay Point = "dfk.lane"
	// PointWALAppend fires once per durable-log record append, before the
	// record is buffered. ActKill freezes the log at exactly that record
	// boundary (records 0..hit-1 durable, hit and later lost) — combined
	// with Rule.After it pins a simulated process crash to any boundary.
	// ActFail fails the single append; ActDelay stalls it.
	PointWALAppend Point = "wal.append"
	// PointWALFsync fires before each durable-log group-commit fsync;
	// ActKill freezes the log there, ActDelay stalls the committer.
	PointWALFsync Point = "wal.fsync"
)

// Action is what a firing fault point does.
type Action uint8

// Actions. Which actions a point honors depends on the helper consulted
// there: Frame honors the wire actions, Exec honors ActPanic/ActStall,
// Kill honors ActKill, Fail honors ActFail, Sleep honors ActDelay.
const (
	ActNone     Action = iota
	ActDrop            // wire: swallow the frame, report success
	ActDelay           // wire/lane: sleep Rule.Delay, then proceed
	ActDup             // wire: send the frame twice
	ActCorrupt         // wire: flip one deterministic body byte
	ActTruncate        // wire: send only a prefix of the frame
	ActKill            // kill point: abrupt manager death
	ActPanic           // exec point: panic inside the kernel sandbox
	ActStall           // exec point: sleep Rule.Delay before the app body
	ActFail            // submit point: fail the attempt with ErrInjected
	// ActFailClass fails the attempt with a *ClassError carrying Rule.Class,
	// so a rule can inject a specific failure class (as named by
	// internal/health) at dfk.submit or exec.run and drive the
	// classification paths seed-reproducibly.
	ActFailClass
)

var actionNames = map[Action]string{
	ActNone: "none", ActDrop: "drop", ActDelay: "delay", ActDup: "dup",
	ActCorrupt: "corrupt", ActTruncate: "truncate", ActKill: "kill",
	ActPanic: "panic", ActStall: "stall", ActFail: "fail",
	ActFailClass: "fail-class",
}

// String implements fmt.Stringer.
func (a Action) String() string {
	if n, ok := actionNames[a]; ok {
		return n
	}
	return fmt.Sprintf("Action(%d)", uint8(a))
}

// ErrInjected is the error ActFail injects (wrapped with point context), so
// tests can errors.Is for chaos-caused failures.
var ErrInjected = fmt.Errorf("chaos: injected fault")

// ClassError is the typed failure ActFailClass injects: a fault claiming a
// specific failure class. The message embeds the class as "[class=<name>]"
// so the claim survives being flattened to a string at a remote executor
// boundary and can be re-parsed by the classifier; errors.Is(err,
// ErrInjected) still holds for chaos-wide detection.
type ClassError struct {
	Class  string
	Point  Point
	Hit    int64
	Detail string
}

// Error implements error.
func (e *ClassError) Error() string {
	return fmt.Sprintf("chaos: injected fault [class=%s] at %s hit %d (%s)", e.Class, e.Point, e.Hit, e.Detail)
}

// Unwrap marks the fault as chaos-injected.
func (e *ClassError) Unwrap() error { return ErrInjected }

// Rule arms one action at one point. A point may carry several rules (e.g. a
// wire leg with independent drop, dup, and corrupt probabilities); on each
// hit they are evaluated in plan order and the first that fires wins.
type Rule struct {
	Point Point
	Act   Action
	// Prob is the per-hit fire probability in [0, 1]. The roll is a pure
	// function of (seed, point, rule index, hit index) — see the package
	// comment.
	Prob float64
	// Delay parameterizes ActDelay/ActStall.
	Delay time.Duration
	// Max bounds total fires for this rule (0 = unlimited). Kill rules
	// should set it so a scenario cannot decapitate every manager.
	Max int
	// Class names the failure class an ActFailClass rule injects (the
	// internal/health class names: "transient-wire", "executor-lost",
	// "task-fault", "timeout", "overload"). Ignored by other actions.
	Class string
	// Match, when non-empty, restricts the rule to hits whose detail string
	// contains it (e.g. "pool/" for threadpool workers, a manager id for a
	// targeted kill). Unmatched hits do not advance this rule's schedule.
	Match string
	// After makes the rule ineligible until its matched-hit index reaches it:
	// hits 0..After-1 advance the counter but never roll. With Prob 1 and
	// Max 1 the rule fires exactly at matched hit After — how the crash
	// matrix pins a kill to one specific WAL record boundary.
	After int64
}

// Plan is an ordered rule set; order matters only among rules armed at the
// same point.
type Plan []Rule

// Event records one fired fault. Point+Rule+Hit+Act+Delay are the
// deterministic schedule; Detail (worker/manager id) is observational and
// may differ between runs of the same seed.
type Event struct {
	Point  Point
	Rule   int   // plan index of the rule that fired
	Hit    int64 // 0-based index among this rule's matched hits
	Act    Action
	Delay  time.Duration
	Detail string
}

// String renders the event; the prefix before the detail is the schedule
// entry compared across runs.
func (e Event) String() string {
	return fmt.Sprintf("%s/r%d#%d %s %v (%s)", e.Point, e.Rule, e.Hit, e.Act, e.Delay, e.Detail)
}

// armedRule is one plan rule plus its counters. hits counts only the hits
// this rule was eligible for (Match satisfied), and the roll for matched hit
// n is a pure function of (seed, point, rule, n) — so a Match-scoped rule
// ("kill manager X", "stall only pool workers") is exactly as reproducible
// as an unscoped one: its kth matched hit always gets the same decision.
type armedRule struct {
	Rule
	idx   uint64 // position in the plan, part of the roll
	hits  atomic.Int64
	fires atomic.Int64
}

// Injector is one armed fault plan. Install it with Enable; all fault points
// consult the installed injector.
type Injector struct {
	seed   int64
	points map[Point][]*armedRule // each point's rules in plan order

	mu  sync.Mutex
	log []Event
}

// New arms plan under seed.
func New(seed int64, plan Plan) *Injector {
	inj := &Injector{seed: seed, points: make(map[Point][]*armedRule)}
	for i, r := range plan {
		inj.points[r.Point] = append(inj.points[r.Point], &armedRule{Rule: r, idx: uint64(i)})
	}
	return inj
}

// Events returns the fired-fault log in canonical (point, hit) order —
// stable across runs of the same seed up to each point's hit count.
func (inj *Injector) Events() []Event {
	inj.mu.Lock()
	out := make([]Event, len(inj.log))
	copy(out, inj.log)
	inj.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Point != out[j].Point {
			return out[i].Point < out[j].Point
		}
		if out[i].Rule != out[j].Rule {
			return out[i].Rule < out[j].Rule
		}
		return out[i].Hit < out[j].Hit
	})
	return out
}

// Fires reports how many times any rule at p has fired.
func (inj *Injector) Fires(p Point) int64 {
	var n int64
	for _, r := range inj.points[p] {
		n += r.fires.Load()
	}
	return n
}

// splitmix64 is the SplitMix64 finalizer: full-avalanche mixing so that
// structured inputs (small seeds, sequential hit counters) still roll
// uniformly.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// pointHash folds a point name into the roll input.
func pointHash(p Point) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(p); i++ {
		h ^= uint64(p[i])
		h *= 1099511628211
	}
	return h
}

// roll returns the uniform [0,1) variate for (seed, point, rule, hit) — the
// entire fault schedule derives from this pure function.
func (inj *Injector) roll(p Point, rule uint64, hit int64) float64 {
	x := splitmix64(uint64(inj.seed) ^ pointHash(p) ^ splitmix64(rule^uint64(hit)<<20))
	return float64(x>>11) / (1 << 53)
}

// decide advances p's schedule by one hit and returns the fired rule, if
// any. Every matched rule's hit counter advances on every hit — not just
// until the first firing rule — so each rule's decision sequence is a pure
// function of its own matched-hit count, independent of what its siblings
// did. The first rule (in plan order) whose roll fires wins the hit.
func (inj *Injector) decide(p Point, detail string) (Action, time.Duration, int64, string) {
	rules := inj.points[p]
	if rules == nil {
		return ActNone, 0, -1, ""
	}
	var winner *armedRule
	var winHit int64
	for _, r := range rules {
		if r.Match != "" && !strings.Contains(detail, r.Match) {
			continue
		}
		n := r.hits.Add(1) - 1
		if n < r.After {
			continue
		}
		if winner != nil {
			continue
		}
		if inj.roll(p, r.idx, n) >= r.Prob {
			continue
		}
		if !r.reserveFire() {
			continue
		}
		winner, winHit = r, n
	}
	if winner == nil {
		return ActNone, 0, -1, ""
	}
	inj.record(Event{
		Point: p, Rule: int(winner.idx), Hit: winHit,
		Act: winner.Act, Delay: winner.Delay, Detail: detail,
	})
	return winner.Act, winner.Delay, winHit, winner.Class
}

// reserveFire claims one fire slot, never overshooting Max under concurrency.
func (r *armedRule) reserveFire() bool {
	if r.Max <= 0 {
		r.fires.Add(1)
		return true
	}
	for {
		cur := r.fires.Load()
		if cur >= int64(r.Max) {
			return false
		}
		if r.fires.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

func (inj *Injector) record(e Event) {
	inj.mu.Lock()
	inj.log = append(inj.log, e)
	inj.mu.Unlock()
}

// active is the installed injector; nil means every fault point is a no-op
// costing one atomic load.
var active atomic.Pointer[Injector]

// Enable installs inj process-wide and returns a restore function that
// reinstates the previous injector (tests defer it).
func Enable(inj *Injector) (restore func()) {
	prev := active.Swap(inj)
	return func() { active.Store(prev) }
}

// Disable removes the active injector.
func Disable() { active.Store(nil) }

// Enabled reports whether an injector is installed.
func Enabled() bool { return active.Load() != nil }

// Frame is the wire-leg fault point: product code routes a frame send
// through it. Disabled, it calls send(frame) directly. Enabled, the point's
// schedule may drop the frame (reporting success — the transport "lost" it),
// delay it (holding the caller, which on stream legs preserves frame order
// because the stream encoder lock is held), duplicate it, flip one byte of
// the body, or truncate it. Corrupt/truncated frames are sent as copies; the
// caller's buffer is never mutated. The detail string names the leg's
// endpoint identity — the interchange-shard label ("htex[2]") or manager id —
// so a Match-scoped rule addresses one shard's wire legs while the others
// run clean.
func Frame(p Point, detail string, frame []byte, send func(frame []byte) error) error {
	inj := active.Load()
	if inj == nil {
		return send(frame)
	}
	act, d, hit, _ := inj.decide(p, detail)
	switch act {
	case ActDrop:
		return nil
	case ActDelay:
		time.Sleep(d)
		return send(frame)
	case ActDup:
		if err := send(frame); err != nil {
			return err
		}
		return send(frame)
	case ActCorrupt:
		cp := append([]byte(nil), frame...)
		// Flip one deterministic byte in the frame's second half: headers
		// sit at the front, so the receiver sees a valid tag and epoch on a
		// frame whose payload is garbage — the hard case, which only a body
		// checksum can catch (header corruption is caught by trivial tag and
		// length checks).
		if n := len(cp); n > 0 {
			i := n/2 + int(uint64(hit)%uint64(n-n/2))
			cp[i] ^= 0xA5
		}
		return send(cp)
	case ActTruncate:
		return send(append([]byte(nil), frame[:len(frame)/2]...))
	default:
		return send(frame)
	}
}

// Exec is the execution-kernel fault point. ActPanic panics (the kernel's
// recover sandbox converts it to a task failure, exactly as a panicking app
// body would be); ActStall sleeps; ActFail and ActFailClass return an error
// the kernel reports as the task's failure — the class marker inside a
// ClassError survives the flattening to a remote result string.
func Exec(p Point, detail string) error {
	inj := active.Load()
	if inj == nil {
		return nil
	}
	act, d, hit, class := inj.decide(p, detail)
	switch act {
	case ActPanic:
		panic(fmt.Sprintf("chaos: injected panic at %s hit %d (%s)", p, hit, detail))
	case ActStall, ActDelay:
		time.Sleep(d)
	case ActFail:
		return fmt.Errorf("%w at %s hit %d (%s)", ErrInjected, p, hit, detail)
	case ActFailClass:
		return &ClassError{Class: class, Point: p, Hit: hit, Detail: detail}
	}
	return nil
}

// Fail is the attempt-failure fault point: it returns an error wrapping
// ErrInjected when the schedule says this attempt should fail before
// reaching its executor, nil otherwise. ActFailClass fails with a typed
// *ClassError claiming the rule's failure class.
func Fail(p Point, detail string) error {
	inj := active.Load()
	if inj == nil {
		return nil
	}
	act, _, hit, class := inj.decide(p, detail)
	switch act {
	case ActFail:
		return fmt.Errorf("%w at %s hit %d (%s)", ErrInjected, p, hit, detail)
	case ActFailClass:
		return &ClassError{Class: class, Point: p, Hit: hit, Detail: detail}
	}
	return nil
}

// Sleep is the delay-only fault point (lane drains).
func Sleep(p Point, detail string) {
	inj := active.Load()
	if inj == nil {
		return
	}
	if act, d, _, _ := inj.decide(p, detail); act == ActDelay || act == ActStall {
		time.Sleep(d)
	}
}

// Crash is the durable-log fault point: one decision per record boundary.
// kill=true tells the caller to freeze the log as if the process died at
// this exact boundary; a non-nil error fails the single operation; ActDelay
// and ActStall sleep before proceeding.
func Crash(p Point, detail string) (kill bool, err error) {
	inj := active.Load()
	if inj == nil {
		return false, nil
	}
	act, d, hit, _ := inj.decide(p, detail)
	switch act {
	case ActKill:
		return true, nil
	case ActFail:
		return false, fmt.Errorf("%w at %s hit %d (%s)", ErrInjected, p, hit, detail)
	case ActDelay, ActStall:
		time.Sleep(d)
	}
	return false, nil
}

// Kill is the abrupt-death fault point: true means the caller should die now.
func Kill(p Point, detail string) bool {
	inj := active.Load()
	if inj == nil {
		return false
	}
	act, _, _, _ := inj.decide(p, detail)
	return act == ActKill
}
