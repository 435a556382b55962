package dfk

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/executor"
	"repro/internal/future"
	"repro/internal/monitor"
	"repro/internal/serialize"
	"repro/internal/task"
	"repro/internal/wal"
)

// Recovery summarizes one crash-recovery pass: which tasks the durable log
// proved terminal before the crash (resolved here from the log, never
// re-executed), and which were live (re-admitted through the normal submit
// boundary, exactly once each). Futures are keyed by the WAL task key — the
// identity that survives the crash; task ids are per-process.
type Recovery struct {
	// Resolved holds tasks terminal at the crash, settled from the log: done
	// tasks resolve to the value their terminal record carries (and fail when
	// it carries none), failed tasks fail again. Terminal history already
	// folded into a compaction snapshot is counted, not resolved — its
	// futures settled in a previous lifetime.
	Resolved map[int64]*future.Future
	// Resumed holds tasks live at the crash, re-admitted as new tasks: they
	// run through dispatch, retries, memoization, and the monitor exactly
	// like first submissions, with their remaining retry budget.
	Resumed map[int64]*future.Future
	// LiveAtCrash and TerminalAtCrash count the replayed frontier.
	LiveAtCrash     int
	TerminalAtCrash int
	// MemoHits counts resumed tasks settled from the checkpoint without
	// launching — the crash lost their terminal record but not their result.
	MemoHits int
	// Unrecoverable counts resumed tasks whose app is not registered in this
	// process; they fail rather than silently vanish.
	Unrecoverable int
	// Elapsed is the wall-clock recovery time (replay happened at Open; this
	// covers resolution, re-admission, and the post-recovery compaction).
	Elapsed time.Duration
}

// Recover consumes the frontier replayed from the durable log when this DFK
// opened it: construct the DFK with Config.WAL over the crashed process's
// WALDir, re-register the apps, then call Recover before submitting new work.
// Idempotent in effect — the replayed frontier is consumed by the first call,
// and recovery itself is logged, so a crash during recovery replays the same
// (or a smaller) frontier next time.
func (d *DFK) Recover() (*Recovery, error) {
	start := time.Now()
	rcv := &Recovery{
		Resolved: make(map[int64]*future.Future),
		Resumed:  make(map[int64]*future.Future),
	}
	if d.wal == nil {
		return nil, errors.New("dfk: Recover requires Config.WAL")
	}
	fr := d.wal.Recovered()
	if fr == nil {
		return rcv, nil
	}
	rcv.LiveAtCrash = len(fr.Live)
	rcv.TerminalAtCrash = len(fr.Terminals)
	for key, t := range fr.Terminals {
		if v, err := loggedValue(t); err != nil {
			rcv.Resolved[key] = future.FromError(fmt.Errorf("dfk: task (wal key %d) %w", key, err))
		} else {
			rcv.Resolved[key] = future.Completed(v)
		}
	}
	// Re-admit live tasks in WAL-key order — submission order — so recovery
	// is deterministic and dispatch sees the pre-crash arrival sequence.
	keys := make([]int64, 0, len(fr.Live))
	for k := range fr.Live {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		d.resume(k, fr.Live[k], rcv)
	}
	// Fold the recovered history into a snapshot: the next crash replays the
	// live frontier, not the whole pre-crash record stream.
	if err := d.wal.Compact(); err != nil {
		d.emitWAL(0, "compact", err)
	}
	rcv.Elapsed = time.Since(start)
	d.mon.Emit(monitor.Event{
		Kind: monitor.KindWAL,
		At:   time.Now(),
		Detail: fmt.Sprintf(
			"recovered %d records: %d live re-admitted (%d memo hits, %d unrecoverable), %d terminal resolved, %d folded",
			fr.Records, rcv.LiveAtCrash, rcv.MemoHits, rcv.Unrecoverable, rcv.TerminalAtCrash, fr.Folded),
		Duration: rcv.Elapsed,
	})
	return rcv, nil
}

// resume re-admits one live-at-crash task through the same machinery a fresh
// submission uses: a new record and task id, the normal pending state, memo
// consultation, and the dispatch pipeline. What differs is durable identity
// (Record.Resume): the crashed task's WAL key and its pre-crash launch count.
func (d *DFK) resume(key int64, info *wal.TaskInfo, rcv *Recovery) {
	d.mu.RLock()
	if d.shutdown {
		d.mu.RUnlock()
		rcv.Resumed[key] = future.FromError(executor.ErrShutdown)
		return
	}
	d.wg.Add(1)
	d.mu.RUnlock()

	_, kwargs, decErr := serialize.DecodeArgsBytes(info.Payload)
	id := d.newTask()
	rec, gen := task.Create(id, info.App, kwargs, task.Options{
		Tenant: info.Tenant, Weight: info.Weight,
		MaxRetries: info.MaxRetries, Priority: info.Priority,
	})
	defer rec.Exit()
	rec.Resume(key, info.Launches)
	rcv.Resumed[key] = rec.Future
	d.emitState(id, info.App, info.Tenant, noState, task.Pending, "")
	if decErr != nil {
		d.failTask(rec, fmt.Errorf("dfk: recover: decode logged payload: %w", decErr))
		return
	}
	// A cache hit: the crash lost the terminal record, but the checkpoint
	// holds the result, so the task settles without re-execution — and this
	// lifetime logs the terminal record the last one couldn't.
	if info.MemoKey != "" {
		if v, hit := d.memoizer.Lookup(info.MemoKey); hit {
			if d.finish(rec, task.Memoized, v, nil) {
				rcv.MemoHits++
			}
			return
		}
		rec.SetMemoKey(info.MemoKey)
	}
	entry, ok := d.registry.Lookup(info.App)
	if !ok {
		rcv.Unrecoverable++
		d.failTask(rec, fmt.Errorf("dfk: recover: app %q not registered in this process", info.App))
		return
	}
	if info.Launches > info.MaxRetries {
		d.failTask(rec, fmt.Errorf(
			"dfk: recover: retry budget exhausted before the crash (%d launches, %d retries allowed)",
			info.Launches, info.MaxRetries))
		return
	}
	attempt := info.Launches + 1
	if info.Launches > 0 {
		// Charge the resumed attempt durably before it can run, exactly as
		// an in-process retry would (the lane runner only logs Launch for
		// attempt 1).
		if err := d.wal.Retry(key, attempt); err != nil {
			d.emitWAL(id, "retry", err)
		}
	}
	a := &App{dfk: d, name: info.App, memoize: info.MemoKey != "", bodyHash: entry.BodyHash()}
	// The frontier's payload slice aliases the log's live mirror; the record
	// needs its own copy with its own refcount lifecycle.
	payload := serialize.PayloadFromBytes(append([]byte(nil), info.Payload...))
	pl := attemptPool.Get().(*pendingLaunch)
	*pl = pendingLaunch{
		id: id, rec: rec, gen: gen, app: a,
		payload: payload.Retain(),
		wireID:  id, priority: info.Priority,
		tenant: info.Tenant, weight: info.Weight,
		walKey: key, walAttempt: attempt,
	}
	if l, _ := d.firstAttempt(pl); l != nil {
		l.push(pl)
	}
}

// loggedValue is what a terminal record settles its task's future with.
// Exactly-once forbids re-running a task the log proved ran, so a done task
// whose value is missing or does not decode to one value fails instead.
func loggedValue(t wal.Terminal) (any, error) {
	if t.Outcome == wal.OutcomeFailed {
		return nil, errors.New("failed before the crash")
	}
	if len(t.Value) == 0 {
		return nil, errors.New("concluded before the crash without a durable value")
	}
	args, kwargs, err := serialize.DecodeArgsBytes(t.Value)
	if err != nil || len(args) != 1 || kwargs != nil {
		return nil, fmt.Errorf("concluded before the crash, but its logged value is not one value (%d args, %v)", len(args), err)
	}
	return args[0], nil
}
