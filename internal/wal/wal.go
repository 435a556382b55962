// Package wal is the durable dataflow log: an append-only, CRC-32C-framed,
// segment-rotated write-ahead log of task state transitions. The DFK appends
// a record per transition — submit (with the encode-once payload bytes, memo
// key, tenant, priority, and retry budget), launch, retry, terminal.
//
// The log has two halves, a lock each. An append takes only the front end's
// stageMu: it assigns the key and frames the record into a staging buffer —
// one memcpy, no allocation in steady state. The back end (mu: the committer,
// Sync, Compact, LiveCount, Close) swaps the stage out, folds it into the
// live mirror, writes it in one Write, rotates and compacts, so a snapshot
// covers exactly the records written before it. The committer drains every
// SyncInterval, fsyncing outside its lock, and early once 64 KiB is staged;
// an appender drains the stage itself only past 1 MiB, the one path on which
// an append waits on the disk and the bound on the stage's memory.
//
// On restart, replaying the segments rebuilds the exact pre-crash frontier:
// terminal tasks resolve to the value their terminal record carries, live
// tasks are re-admitted exactly once. Compaction folds fully-terminal history
// into a snapshot record so the log stays O(live frontier).
//
// Crash model: process death. Staged appends that never reached the file are
// lost (group commit trades the tail for throughput), and a torn final record
// is discarded at replay. A failed write is not a crash: the first write,
// rotation or compaction error sticks, and Sync, Close and every later append
// return it. The chaos plane can freeze the log at any record boundary
// (chaos.PointWALAppend + ActKill) without killing the test process: the
// killing append seals the stage, the back end writes exactly that stage,
// and the disk holds byte-for-byte what a real death there leaves behind.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/serialize"
)

// ErrCrashed reports an append against a log frozen by an injected crash:
// from the caller's perspective the disk is gone.
var ErrCrashed = errors.New("wal: log frozen by injected crash")

// ErrClosed reports an append after Close.
var ErrClosed = errors.New("wal: log closed")

// Chaos details passed at the append fault point, so Match can scope a rule
// to one record type.
const (
	detailSubmit   = "submit"
	detailLaunch   = "launch"
	detailRetry    = "retry"
	detailTerminal = "terminal"
	detailSync     = "sync"
)

// Stage thresholds: past kickBytes an append wakes the committer, past
// stageBytes it drains the stage itself.
const (
	kickBytes  = 64 << 10
	stageBytes = 1 << 20
)

// Options tune a Log; zero values select the defaults.
type Options struct {
	// SegmentBytes rotates to a new segment file once the current one
	// exceeds this size (default 1 MiB).
	SegmentBytes int64
	// SyncInterval is the group-commit cadence: staged records are written
	// and fsynced at least this often (default 2ms). Appends between drains
	// cost one memcpy into the stage.
	SyncInterval time.Duration
	// CompactEvery folds terminal history into a snapshot after this many
	// terminal records (default 4096; negative disables auto-compaction).
	CompactEvery int
	// OnCrash is invoked exactly once when an injected crash freezes the
	// log — the DFK freezes the memo checkpoint at the same boundary so the
	// simulated on-disk state is consistent across both durable layers.
	OnCrash func()
}

func (o *Options) normalize() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	if o.SyncInterval <= 0 {
		o.SyncInterval = 2 * time.Millisecond
	}
	if o.CompactEvery == 0 {
		o.CompactEvery = 4096
	}
}

// liveTask is the in-memory mirror of one live task: its encoded submit body
// (re-embedded into snapshot records at compaction) and its launch count.
// Terminal tasks return their liveTask to a free list, so steady state
// drains allocate nothing.
type liveTask struct {
	body     []byte
	launches int
}

// Log is one open write-ahead log over a segment directory.
type Log struct {
	dir  string
	opts Options

	// Front end: everything an append touches.
	stageMu sync.Mutex
	stage   []byte // framed records the back end has not taken yet
	nextKey int64
	closed  bool
	crashed bool          // an injected crash sealed the stage
	err     error         // the back end's first write error, sticky
	kick    chan struct{} // wakes the committer early; a full one is skipped

	// Back end: the segment files and the live mirror.
	mu       sync.Mutex
	spare    []byte // the stage the last drain took, handed back on the next
	snap     []byte // compaction's snapshot frame, reused
	f        *os.File
	segIndex int
	segBytes int64
	// syncQ holds rotated-out segments awaiting their final sync+close; the
	// committer drains it outside the lock.
	syncQ  []*os.File
	frozen bool // the sealed stage is on disk and OnCrash has fired

	// The live mirror is a sliding window over the sequential key space:
	// liveSeq[i] mirrors key liveBase+i (nil once terminal), so the window's
	// tail is the next key the written records have not used. Submissions
	// append at the tail, settled prefixes slide off the head — O(1) per
	// record with no map hashing, and compaction walks it already in key
	// order.
	liveBase  int64
	liveSeq   []*liveTask
	liveN     int
	freeList  []*liveTask
	folded    int64 // terminals folded into snapshots
	terminals int64 // terminal records since the last snapshot

	// recovered is the frontier replayed at Open; nil for a fresh directory.
	// dfk.Recover consumes it.
	recovered *Frontier

	done      chan struct{}
	committer sync.WaitGroup
}

// segmentName formats the idx-th segment file name.
func segmentName(idx int) string { return fmt.Sprintf("wal-%08d.seg", idx) }

// listSegments returns the segment files in dir in index order.
func listSegments(dir string) (paths []string, indices []int, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		var idx int
		if _, err := fmt.Sscanf(e.Name(), "wal-%08d.seg", &idx); err == nil {
			paths = append(paths, filepath.Join(dir, e.Name()))
			indices = append(indices, idx)
		}
	}
	sort.Sort(&segSort{paths, indices})
	return paths, indices, nil
}

type segSort struct {
	paths   []string
	indices []int
}

func (s *segSort) Len() int           { return len(s.paths) }
func (s *segSort) Less(i, j int) bool { return s.indices[i] < s.indices[j] }
func (s *segSort) Swap(i, j int) {
	s.paths[i], s.paths[j] = s.paths[j], s.paths[i]
	s.indices[i], s.indices[j] = s.indices[j], s.indices[i]
}

// Replay rebuilds the frontier from the segments in dir without opening the
// log for writing. A torn tail in the last segment is discarded (counted in
// Frontier.Torn); damage anywhere else is an error.
func Replay(dir string) (*Frontier, error) {
	fr, _, err := replayDir(dir)
	return fr, err
}

// replayDir replays every segment, returning the frontier and the byte
// offset of the last good record in the final segment (for tail truncation).
func replayDir(dir string) (*Frontier, int64, error) {
	fr := newFrontier()
	paths, _, err := listSegments(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return fr, 0, nil
		}
		return nil, 0, err
	}
	var lastGood int64
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, 0, fmt.Errorf("wal: read segment: %w", err)
		}
		good, torn, err := WalkFrames(data, fr.apply)
		if err != nil {
			return nil, 0, fmt.Errorf("wal: segment %s: %w", filepath.Base(p), err)
		}
		if torn {
			if i != len(paths)-1 {
				return nil, 0, fmt.Errorf(
					"wal: segment %s: corrupt record at offset %d in a non-final segment",
					filepath.Base(p), good)
			}
			fr.Torn++
		}
		lastGood = good
	}
	return fr, lastGood, nil
}

// Open replays the segments in dir (creating it if needed), truncates any
// torn tail, and opens a fresh segment for appending. The replayed frontier
// is available via Recovered until consumed.
func Open(dir string, opts Options) (*Log, error) {
	opts.normalize()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: mkdir: %w", err)
	}
	fr, lastGood, err := replayDir(dir)
	if err != nil {
		return nil, err
	}
	paths, indices, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	nextIdx := 1
	if len(indices) > 0 {
		nextIdx = indices[len(indices)-1] + 1
		// Truncate the torn tail so the damaged record sits in no segment a
		// future replay treats as non-final.
		if fr.Torn > 0 {
			if err := os.Truncate(paths[len(paths)-1], lastGood); err != nil {
				return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
			}
		}
	}
	l := &Log{
		dir:      dir,
		opts:     opts,
		nextKey:  fr.NextKey,
		liveBase: fr.NextKey,
		folded:   fr.Folded,
		kick:     make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	l.terminals = int64(len(fr.Terminals))
	if fr.Records > 0 || fr.Torn > 0 {
		l.recovered = fr
	}
	// Seed the in-memory frontier mirror from the replay, so compaction
	// snapshots carry replayed live tasks across any number of crashes. The
	// window starts at the lowest live key.
	for key := range fr.Live {
		if key < l.liveBase {
			l.liveBase = key
		}
	}
	l.liveSeq = make([]*liveTask, fr.NextKey-l.liveBase)
	for key, info := range fr.Live {
		lt := &liveTask{launches: info.Launches}
		lt.body = appendSubmitBody(lt.body, info)
		l.liveSeq[key-l.liveBase] = lt
		l.liveN++
	}
	f, err := os.OpenFile(filepath.Join(dir, segmentName(nextIdx)),
		os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open segment: %w", err)
	}
	l.f = f
	l.segIndex = nextIdx
	l.committer.Add(1)
	go l.commitLoop()
	return l, nil
}

// Recovered returns the frontier replayed at Open (nil for a fresh
// directory).
func (l *Log) Recovered() *Frontier { return l.recovered }

// LiveCount reports tasks submitted but not yet terminal.
func (l *Log) LiveCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	_ = l.drainLocked() // a failure sticks; appends, Sync and Close report it
	return l.liveN
}

// commitLoop is the group-commit pump: it drains the stage when an append
// kicks it, and every SyncInterval drains and fsyncs, so an append is durable
// within one interval without any fsync on the dispatch path. The fsync runs
// outside the back-end lock. (Fsyncing a file another path has since closed —
// rotation, compaction — just returns ErrClosed, which is fine: whoever
// closed it synced it first.)
func (l *Log) commitLoop() {
	defer l.committer.Done()
	tick := time.NewTicker(l.opts.SyncInterval)
	defer tick.Stop()
	for {
		select {
		case <-l.done:
			return
		case <-l.kick:
			l.mu.Lock()
			_ = l.drainLocked() // sticky, as in LiveCount
			l.mu.Unlock()
		case <-tick.C:
			l.mu.Lock()
			if l.frozen {
				l.mu.Unlock()
				return
			}
			if kill, _ := chaos.Crash(chaos.PointWALFsync, detailSync); kill {
				l.stageMu.Lock()
				l.crashed = true
				l.stageMu.Unlock()
			}
			if l.drainLocked() != nil || l.frozen {
				l.mu.Unlock()
				return
			}
			rotated, f := l.syncQ, l.f
			l.syncQ = nil
			l.mu.Unlock()
			for _, old := range rotated {
				_ = old.Sync()
				_ = old.Close()
			}
			_ = f.Sync()
		}
	}
}

// gateLocked gates one append: closed/crashed/failed state first, then the
// chaos fault point — exactly one decision per record boundary, which is
// what lets a test freeze the log at boundary k deterministically. A kill
// seals the stage: it holds exactly records 0..k-1 not yet written.
func (l *Log) gateLocked(detail string) error {
	if l.closed {
		return ErrClosed
	}
	if l.crashed {
		return ErrCrashed
	}
	if l.err != nil {
		return l.err
	}
	kill, err := chaos.Crash(chaos.PointWALAppend, detail)
	if kill {
		l.crashed = true
		return ErrCrashed
	}
	return err
}

// endAppend releases stageMu. A stage past kickBytes wakes the committer; one
// past stageBytes, or sealed by a crash, is drained here, so a crashing append
// returns only once the sealed stage is on disk and OnCrash has fired.
func (l *Log) endAppend(err error) error {
	n, crashed := len(l.stage), l.crashed
	l.stageMu.Unlock()
	if crashed || n >= stageBytes {
		l.mu.Lock()
		derr := l.drainLocked()
		l.mu.Unlock()
		if err == nil {
			err = derr
		}
	} else if n >= kickBytes {
		select {
		case l.kick <- struct{}{}:
		default:
		}
	}
	return err
}

// drainLocked takes the stage from the front end and commits it: the live
// mirror, one Write, rotation, then the compaction gate. A sealed stage is
// written and the crash completed instead. It returns the sticky error.
func (l *Log) drainLocked() error {
	if l.frozen {
		return nil
	}
	l.stageMu.Lock()
	buf, crashed, err := l.stage, l.crashed, l.err
	if !crashed {
		l.stage, l.spare = l.spare[:0], buf
	}
	l.stageMu.Unlock()
	if err == nil && len(buf) > 0 {
		l.mirrorLocked(buf)
		err = l.writeLocked(buf)
		// Auto-compact only when the foldable history has caught up with the
		// live frontier: a snapshot rewrites O(live) bytes to retire
		// O(terminals) records, so requiring terminals ≥ live keeps the
		// amortized cost per record constant.
		if err == nil && !crashed && l.opts.CompactEvery > 0 &&
			l.terminals >= int64(l.opts.CompactEvery) && l.terminals >= int64(l.liveN) {
			err = l.compactLocked()
		}
		l.fail(err)
	}
	if crashed {
		l.freezeLocked()
		return nil
	}
	return err
}

// fail makes a non-nil err the log's sticky error unless an earlier one
// already is, and returns err.
func (l *Log) fail(err error) error {
	if err != nil {
		l.stageMu.Lock()
		if l.err == nil {
			l.err = err
		}
		l.stageMu.Unlock()
	}
	return err
}

// freezeLocked completes an injected crash once the sealed stage is written:
// every segment is synced and the OnCrash hook freezes the sibling durable
// layer (the memo checkpoint). The hook runs under mu, so the killing append,
// whichever back-end caller got here first, returns after it.
func (l *Log) freezeLocked() {
	l.frozen = true
	l.drainSyncQLocked()
	if l.f != nil {
		_ = l.f.Sync()
	}
	if l.opts.OnCrash != nil {
		l.opts.OnCrash()
	}
}

// mirrorLocked folds drained frames into the live mirror, in stage order.
func (l *Log) mirrorLocked(buf []byte) {
	for len(buf) > 0 {
		n := frameHeaderLen + int(binary.BigEndian.Uint32(buf))
		body := buf[frameHeaderLen:n]
		buf = buf[n:]
		k, _ := binary.Uvarint(body[1:])
		switch key := int64(k); body[0] {
		case recSubmit:
			lt := l.takeLive()
			lt.body = append(lt.body, body[1:]...)
			l.livePut(key, lt)
		case recLaunch, recRetry:
			if lt := l.liveGet(key); lt != nil {
				lt.launches++
			}
		case recTerminal:
			if lt := l.liveDelete(key); lt != nil {
				l.freeList = append(l.freeList, lt)
			}
			l.terminals++
		}
	}
}

// writeLocked appends drained frames to the segment in one Write and rotates
// once it outgrew SegmentBytes. Rotation happens only between drains, so a
// record never spans two segments.
func (l *Log) writeLocked(buf []byte) error {
	if _, err := l.f.Write(buf); err != nil {
		return fmt.Errorf("wal: write segment: %w", err)
	}
	l.segBytes += int64(len(buf))
	if l.segBytes >= l.opts.SegmentBytes {
		return l.rotateLocked()
	}
	return nil
}

// rotateLocked opens the next segment and queues the current one for its
// final sync+close on the committer. Under the process-death crash model the
// written-but-unsynced tail survives in the page cache; the deferred fsync
// only narrows the machine-death window.
func (l *Log) rotateLocked() error {
	next, err := os.OpenFile(filepath.Join(l.dir, segmentName(l.segIndex+1)),
		os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: rotate: %w", err)
	}
	l.syncQ = append(l.syncQ, l.f)
	l.f = next
	l.segIndex++
	l.segBytes = 0
	return nil
}

// drainSyncQLocked syncs and closes every rotated-out segment inline — the
// full-durability paths (freeze, Sync, Close) use it.
func (l *Log) drainSyncQLocked() {
	for _, f := range l.syncQ {
		_ = f.Sync()
		_ = f.Close()
	}
	l.syncQ = l.syncQ[:0]
}

// liveGet returns the live mirror entry for key, nil if not live.
func (l *Log) liveGet(key int64) *liveTask {
	idx := key - l.liveBase
	if idx < 0 || idx >= int64(len(l.liveSeq)) {
		return nil
	}
	return l.liveSeq[idx]
}

// livePut records a newly submitted key. Keys are assigned in increasing
// order, so the slot is at (or just past) the window tail.
func (l *Log) livePut(key int64, lt *liveTask) {
	for int64(len(l.liveSeq)) <= key-l.liveBase {
		l.liveSeq = append(l.liveSeq, nil)
	}
	l.liveSeq[key-l.liveBase] = lt
	l.liveN++
}

// liveDelete removes and returns key's entry, sliding the window past any
// fully-settled prefix so the slice stays O(live span). A window that empties
// restarts in place, keeping its array.
func (l *Log) liveDelete(key int64) *liveTask {
	idx := key - l.liveBase
	if idx < 0 || idx >= int64(len(l.liveSeq)) || l.liveSeq[idx] == nil {
		return nil
	}
	lt := l.liveSeq[idx]
	l.liveSeq[idx] = nil
	if l.liveN--; l.liveN == 0 {
		l.liveBase += int64(len(l.liveSeq))
		l.liveSeq = l.liveSeq[:0]
	}
	for len(l.liveSeq) > 0 && l.liveSeq[0] == nil {
		l.liveSeq = l.liveSeq[1:]
		l.liveBase++
	}
	return lt
}

// takeLive pops a recycled liveTask or allocates one.
func (l *Log) takeLive() *liveTask {
	if n := len(l.freeList); n > 0 {
		lt := l.freeList[n-1]
		l.freeList = l.freeList[:n-1]
		lt.launches = 0
		lt.body = lt.body[:0]
		return lt
	}
	return &liveTask{}
}

// Submit appends a task's admission record and returns its durable key. The
// payload bytes are copied into the stage; the caller keeps ownership of p.
func (l *Log) Submit(app, memoKey, tenant string, priority, weight, maxRetries int, payload []byte) (int64, error) {
	l.stageMu.Lock()
	if err := l.gateLocked(detailSubmit); err != nil {
		return 0, l.endAppend(err)
	}
	key := l.nextKey
	l.nextKey++
	info := TaskInfo{
		Key: key, App: app, MemoKey: memoKey, Tenant: tenant,
		Priority: priority, Weight: weight, MaxRetries: maxRetries, Payload: payload,
	}
	start := len(l.stage)
	l.stage = append(openFrame(l.stage), recSubmit)
	l.stage = appendSubmitBody(l.stage, &info)
	if err := sealFrame(l.stage, start); err != nil {
		// Unstage the record: the log holds nothing of this task.
		l.stage = l.stage[:start]
		l.nextKey--
		return 0, l.endAppend(err)
	}
	return key, l.endAppend(nil)
}

// Launch appends a task's first executor submission.
func (l *Log) Launch(key int64, attempt int) error {
	return l.attemptRecord(recLaunch, detailLaunch, key, attempt)
}

// LaunchBatch appends first-launch records for a whole dispatch batch under
// one lock acquisition — the lane runner drains tasks in batches, so the
// durable budget charge amortizes the same way the executor submission does.
// Each key is still its own record (and its own chaos boundary). Returns the
// first error; later keys in the batch are still attempted.
func (l *Log) LaunchBatch(keys []int64) error {
	l.stageMu.Lock()
	var first error
	for _, key := range keys {
		if err := l.gateLocked(detailLaunch); err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		l.stageAttempt(recLaunch, key, 1)
	}
	return l.endAppend(first)
}

// Retry appends a further attempt: launch budget consumed, durable across
// any later crash.
func (l *Log) Retry(key int64, attempt int) error {
	return l.attemptRecord(recRetry, detailRetry, key, attempt)
}

func (l *Log) attemptRecord(rec byte, detail string, key int64, attempt int) error {
	l.stageMu.Lock()
	err := l.gateLocked(detail)
	if err == nil {
		l.stageAttempt(rec, key, attempt)
	}
	return l.endAppend(err)
}

// stageAttempt frames a launch or retry record into the stage. Its body is
// at most 21 bytes, so sealing cannot fail.
func (l *Log) stageAttempt(rec byte, key int64, attempt int) {
	start := len(l.stage)
	l.stage = append(openFrame(l.stage), rec)
	l.stage = appendUvarint(l.stage, uint64(key))
	l.stage = appendUvarint(l.stage, uint64(attempt))
	_ = sealFrame(l.stage, start)
}

// Terminal appends a task's conclusion. Unless it failed, the record carries
// value, encoded before the stage lock as the memo checkpoint encodes one. A
// value the codec refuses is left out: the record is still appended, and the
// encode error is returned without sticking.
func (l *Log) Terminal(key int64, outcome Outcome, value any) error {
	var enc []byte
	var encErr error
	if outcome != OutcomeFailed {
		p, err := serialize.EncodeArgs([]any{value}, nil)
		if encErr = err; err == nil {
			defer p.Release()
			enc = p.Bytes()
		}
	}
	l.stageMu.Lock()
	err := l.gateLocked(detailTerminal)
	if err == nil {
		start := len(l.stage)
		l.stage = append(openFrame(l.stage), recTerminal)
		l.stage = appendUvarint(l.stage, uint64(key))
		l.stage = appendUvarint(l.stage, uint64(outcome))
		l.stage = appendBytes(l.stage, enc)
		if err = sealFrame(l.stage, start); err != nil {
			l.stage = l.stage[:start]
		} else {
			err = encErr
		}
	}
	return l.endAppend(err)
}

// Sync writes the stage and fsyncs — the durability point tests and
// shutdown use; the committer provides it continuously.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.drainLocked(); err != nil || l.frozen || l.f == nil {
		return err
	}
	l.drainSyncQLocked()
	return l.f.Sync()
}

// Compact folds terminal history into a snapshot: the full frontier is
// written to a fresh segment, fsynced, and the older segments deleted. Log
// size returns to O(live frontier). Replay of a compacted log yields the
// same live set, next key, and terminal total as replay of the original.
func (l *Log) Compact() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.drainLocked(); err != nil || l.frozen || l.f == nil {
		return err
	}
	return l.fail(l.compactLocked())
}

// compactLocked snapshots the mirror — exactly the records written so far —
// and writes the snapshot segment before deleting anything, so a crash
// mid-compaction leaves either the old segments (snapshot ignored or absent)
// or the snapshot superseding them — never a torn frontier.
func (l *Log) compactLocked() error {
	b := append(openFrame(l.snap[:0]), recSnapshot)
	b = appendUvarint(b, uint64(l.liveBase+int64(len(l.liveSeq))))
	b = appendUvarint(b, uint64(l.folded+l.terminals))
	b = appendUvarint(b, uint64(l.liveN))
	// The window is already in ascending key order, so compaction output is
	// deterministic for a given frontier (keeping the flip tests honest).
	for _, lt := range l.liveSeq {
		if lt == nil {
			continue
		}
		b = appendUvarint(b, uint64(lt.launches))
		b = appendBytes(b, lt.body)
	}
	l.snap = b
	if err := sealFrame(b, 0); err != nil {
		return fmt.Errorf("wal: compact: %w", err)
	}
	newIdx := l.segIndex + 1
	path := filepath.Join(l.dir, segmentName(newIdx))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: compact: %w", err)
	}
	if _, err := f.Write(b); err != nil {
		_ = f.Close()
		return fmt.Errorf("wal: compact write: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("wal: compact sync: %w", err)
	}
	// The snapshot is durable; retire the history it folds. Rotated-out
	// segments still awaiting their deferred sync are among the deleted
	// files — close them without the pointless fsync.
	for _, qf := range l.syncQ {
		_ = qf.Close()
	}
	l.syncQ = l.syncQ[:0]
	old, oldIdx, _ := listSegments(l.dir)
	_ = l.f.Close()
	for i, p := range old {
		if oldIdx[i] < newIdx {
			_ = os.Remove(p)
		}
	}
	l.f = f
	l.segIndex = newIdx
	l.segBytes = int64(len(b))
	l.folded += l.terminals
	l.terminals = 0
	return nil
}

// Close stops the committer, writes the stage, fsyncs, and closes the
// segment file. After an injected crash it closes the file without writing
// anything more.
func (l *Log) Close() error {
	l.stageMu.Lock()
	closed := l.closed
	l.closed = true
	l.stageMu.Unlock()
	if closed {
		return nil
	}
	close(l.done)
	l.committer.Wait()
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.drainLocked()
	if !l.frozen {
		l.drainSyncQLocked()
		if serr := l.f.Sync(); err == nil {
			err = serr
		}
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}
