package workload

import (
	"fmt"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/dfk"
	"repro/internal/executor"
	"repro/internal/executor/threadpool"
	"repro/internal/future"
	"repro/internal/monitor"
	"repro/internal/serialize"
	"repro/internal/wal"
)

// WALCrashConfig shapes one two-lifetime crash-recovery run: a first DFK
// lifetime writes the durable dataflow log and is "killed" at an exact WAL
// record boundary (the chaos plane freezes the log and the memo checkpoint at
// that boundary, leaving the disk byte-for-byte what a real process death
// would), then a second lifetime recovers from the frozen state and the
// exactly-once invariants are checked across both.
type WALCrashConfig struct {
	// Tasks is the number of tasks the first lifetime submits (default 8).
	Tasks int
	// Retries is the per-task retry budget, enforced ACROSS lifetimes
	// (default 1).
	Retries int
	// Boundary is the 0-based WAL record boundary to crash at: records
	// 0..Boundary-1 are durable, the Boundary-th append and everything after
	// it are lost. Negative runs both lifetimes without a crash.
	Boundary int64
	// Dir is the working directory holding wal/ and checkpoint; it must
	// be empty before the run.
	Dir string
	// Seed feeds the DFK's executor selection and the chaos schedule.
	Seed int64
}

func (c *WALCrashConfig) normalize() {
	setDefault(&c.Tasks, 8)
	setDefault(&c.Retries, 1)
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// WALCrashResult reports one crash-recovery run. Violations empty means every
// exactly-once guarantee held at this boundary.
type WALCrashResult struct {
	// Records is the count of durable WAL records at the crash.
	Records int64
	// LiveAtCrash / TerminalAtCrash describe the replayed frontier.
	LiveAtCrash     int
	TerminalAtCrash int
	// ReExecuted counts tasks whose app body ran again in the second
	// lifetime; the invariant bounds it by LiveAtCrash.
	ReExecuted int
	// MemoHits counts resumed tasks settled from the surviving checkpoint
	// without re-execution.
	MemoHits int
	// RecoveryTime is lifetime 2's Recover() wall clock.
	RecoveryTime time.Duration
	Violations   []string
}

// walValue is the reference app's deterministic function of the task index.
func walValue(i int) int { return i*2 + 1 }

// walTaskIndex decodes the task index back out of a logged payload.
func walTaskIndex(payload []byte) (int, error) {
	args, _, err := serialize.DecodeArgsBytes(payload)
	if err != nil {
		return -1, err
	}
	if len(args) != 1 {
		return -1, fmt.Errorf("decoded %d args, want 1", len(args))
	}
	i, ok := args[0].(int)
	if !ok {
		return -1, fmt.Errorf("decoded arg %T, want int", args[0])
	}
	return i, nil
}

// walLifetime is one DFK process over the durable state in cfg.Dir.
type walLifetime struct {
	d     *dfk.DFK
	app   *dfk.App
	store *monitor.Store
	execs []atomic.Int64 // app-body executions per task index, this lifetime
}

func bootWALLifetime(cfg WALCrashConfig, seed int64) (*walLifetime, error) {
	lt := &walLifetime{store: monitor.NewStore(), execs: make([]atomic.Int64, cfg.Tasks)}
	reg := serialize.NewRegistry()
	var err error
	lt.d, err = dfk.New(dfk.Config{
		Registry:        reg,
		Executors:       []executor.Executor{threadpool.New("tp", 4, reg)},
		Retries:         cfg.Retries,
		Memoize:         true,
		Checkpoint:      filepath.Join(cfg.Dir, "checkpoint"),
		Seed:            seed,
		Monitor:         lt.store,
		WAL:             true,
		WALDir:          filepath.Join(cfg.Dir, "wal"),
		WALCompactEvery: -1, // keep the raw record stream inspectable
	})
	if err != nil {
		return nil, err
	}
	lt.app, err = lt.d.PythonApp("wal-crashf", func(args []any, _ map[string]any) (any, error) {
		i := args[0].(int)
		lt.execs[i].Add(1)
		return walValue(i), nil
	})
	if err != nil {
		_ = lt.d.Shutdown()
		return nil, err
	}
	return lt, nil
}

// RunWALCrash executes the two-lifetime scenario and checks, at the given
// record boundary: no task is lost (every logged task resolves with the right
// value in lifetime 2, from the log or by running again), no
// pre-crash-terminal task is re-executed, recovery re-executes at most the
// in-flight set, each resumed task reaches a terminal state exactly once, and
// the launch budget spans both lifetimes.
func RunWALCrash(cfg WALCrashConfig) (WALCrashResult, error) {
	cfg.normalize()
	var res WALCrashResult
	vs := (*violations)(&res.Violations)
	walDir := filepath.Join(cfg.Dir, "wal")

	// Lifetime 1: run the workload with the log freezing at the boundary.
	// The process itself runs on (futures settle in memory), but the disk
	// stops dead at record Boundary — exactly a kill at that point.
	lt1, err := bootWALLifetime(cfg, cfg.Seed)
	if err != nil {
		return res, err
	}
	if cfg.Boundary >= 0 {
		restore := chaos.Enable(chaos.New(cfg.Seed, chaos.Plan{{
			Point: chaos.PointWALAppend, Act: chaos.ActKill,
			Prob: 1, Max: 1, After: cfg.Boundary,
		}}))
		defer restore()
	}
	for i := 0; i < cfg.Tasks; i++ {
		lt1.app.Call(i)
	}
	lt1.d.WaitAll()
	if err := lt1.d.Shutdown(); err != nil {
		return res, fmt.Errorf("lifetime 1 shutdown: %w", err)
	}
	chaos.Disable()

	// Autopsy of the frozen disk: which tasks does the durable log say were
	// live, and which terminal, at the crash?
	fr, err := wal.Replay(walDir)
	if err != nil {
		return res, fmt.Errorf("replay frozen log: %w", err)
	}
	res.Records = fr.Records
	res.LiveAtCrash = len(fr.Live)
	res.TerminalAtCrash = int(fr.TerminalTotal())
	keyToIdx := make(map[int64]int, cfg.Tasks)
	preTerminal := make(map[int]bool)
	for key, info := range fr.Live {
		i, err := walTaskIndex(info.Payload)
		if err != nil {
			vs.add("live task %d: %v", key, err)
			continue
		}
		keyToIdx[key] = i
	}
	for key, term := range fr.Terminals {
		if term.Info == nil {
			vs.add("terminal task %d lost its submit info without compaction", key)
			continue
		}
		i, err := walTaskIndex(term.Info.Payload)
		if err != nil {
			vs.add("terminal task %d: %v", key, err)
			continue
		}
		keyToIdx[key] = i
		preTerminal[i] = true
	}

	// Lifetime 2: a fresh process over the same durable state.
	lt2, err := bootWALLifetime(cfg, cfg.Seed+1)
	if err != nil {
		return res, fmt.Errorf("lifetime 2 start: %w", err)
	}
	d2 := lt2.d
	rcv, err := d2.Recover()
	if err != nil {
		_ = d2.Shutdown()
		return res, fmt.Errorf("recover: %w", err)
	}
	res.RecoveryTime = rcv.Elapsed
	res.MemoHits = rcv.MemoHits
	if rcv.LiveAtCrash != res.LiveAtCrash || rcv.TerminalAtCrash+int(fr.Folded) != res.TerminalAtCrash {
		vs.add("recovery saw live=%d terminal=%d; replay saw %d, %d",
			rcv.LiveAtCrash, rcv.TerminalAtCrash, res.LiveAtCrash, res.TerminalAtCrash)
	}

	// Invariant: no task lost — every task terminal at the crash resolves
	// from the log with its value, and every live-at-crash task with the
	// right value in lifetime 2 (exactly-once delivery across lifetimes).
	futs := make([]*future.Future, 0, len(rcv.Resolved)+len(rcv.Resumed))
	args := make([]int, 0, cap(futs))
	preLaunches := make(map[int64]int, len(rcv.Resumed))
	for _, recovered := range []map[int64]*future.Future{rcv.Resolved, rcv.Resumed} {
		for key, fut := range recovered {
			i, known := keyToIdx[key]
			if !known {
				vs.add("recovered task %d has no payload mapping", key)
				continue
			}
			futs, args = append(futs, fut), append(args, i)
			if info := fr.Live[key]; info != nil {
				preLaunches[fut.TaskID] = info.Launches
			}
		}
	}
	checkValues(vs, futs, args, walValue)
	d2.WaitAll()

	// Invariant: zero re-execution of pre-crash-terminal tasks, and recovery
	// re-executes no more tasks than were in flight at the crash.
	for i := range lt2.execs {
		n := int(lt2.execs[i].Load())
		if n > 0 {
			res.ReExecuted++
		}
		if preTerminal[i] && n > 0 {
			vs.add("task %d was terminal before the crash but re-executed %d times", i, n)
		}
	}
	checkBoundedReexec(vs, res.ReExecuted, res.LiveAtCrash, "the crash")

	// Invariant: each resumed task reaches a terminal state exactly once in
	// lifetime 2, and its launches across BOTH lifetimes fit the budget.
	checkExactlyOnce(vs, lt2.store, cfg.Retries, preLaunches)

	if err := d2.Shutdown(); err != nil {
		vs.add("lifetime 2 shutdown: %v", err)
	}

	// The durable state after lifetime 2 accounts for every LOGGED task
	// exactly once: nothing live, one terminal per task whose submit record
	// was durable at the crash. A task whose submit append was itself killed
	// never entered the log's exactly-once domain — a real crash loses it
	// before the submitter could have been acknowledged.
	final, err := wal.Replay(walDir)
	if err != nil {
		return res, fmt.Errorf("final replay: %w", err)
	}
	if len(final.Live) != 0 {
		vs.add("final log still holds %d live tasks", len(final.Live))
	}
	if got, want := final.TerminalTotal(), int64(len(keyToIdx)); got != want {
		vs.add("final log holds %d terminals, want %d (one per logged task)", got, want)
	}
	return res, nil
}
