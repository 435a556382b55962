// Package wal is the durable dataflow log: an append-only, CRC-32C-framed,
// segment-rotated write-ahead log of task state transitions. The DFK appends
// a record per transition — submit (with the encode-once payload bytes, memo
// key, tenant, priority, and retry budget), launch, retry, terminal — through
// a group-commit buffer, so the dispatch hot path pays one buffered memcpy
// and a background committer batches the file writes and fsyncs. On restart,
// replaying the segments rebuilds the exact pre-crash frontier: terminal
// tasks resolve from the memo/checkpoint layer, live tasks are re-admitted
// exactly once. Compaction folds fully-terminal history into a snapshot
// record so the log stays O(live frontier), mirroring the task graph's
// record-recycling story.
//
// Crash model: process death. Buffered appends that never reached the file
// are lost (by design — group commit trades the tail for throughput), and a
// torn final record is discarded at replay. The chaos plane can freeze the
// log at any record boundary (chaos.PointWALAppend + ActKill) to simulate a
// crash without killing the test process: the on-disk state is byte-for-byte
// what a real death at that boundary leaves behind.
package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/chaos"
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

// Options tune a Log; zero values select the defaults.
type Options struct {
	// SegmentBytes rotates to a new segment file once the current one
	// exceeds this size (default 1 MiB).
	SegmentBytes int64
	// SyncInterval is the group-commit cadence: buffered records are written
	// and fsynced at least this often (default 2ms). Appends between flushes
	// cost one buffered memcpy.
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
// appends allocate nothing.
type liveTask struct {
	body     []byte
	launches int
}

// Log is one open write-ahead log over a segment directory.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	f        *os.File
	segIndex int
	segBytes int64
	buf      []byte // group-commit buffer: framed records not yet written
	scratch  []byte // per-record body scratch, reused
	// syncQ holds rotated-out segments awaiting their final sync+close; the
	// committer drains it outside the lock so rotation never stalls appends
	// on an fsync.
	syncQ   []*os.File
	crashed bool
	closed  bool

	nextKey int64
	// The live mirror is a sliding window over the sequential key space:
	// liveSeq[i] mirrors key liveBase+i (nil once terminal). Submissions
	// append at the tail, settled prefixes slide off the head — O(1) per
	// record with no map hashing inside the append critical section, and
	// compaction walks it already in key order.
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
		good, torn, err := walkFrames(data, fr.apply)
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
	return l.liveN
}

// Crashed reports whether an injected crash froze the log.
func (l *Log) Crashed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.crashed
}

// commitLoop is the group-commit pump: every SyncInterval it writes buffered
// records to the segment file and fsyncs, so an append is durable within one
// interval without any fsync on the dispatch path. The fsync itself runs
// OUTSIDE the log mutex — appends keep landing in the buffer while the disk
// syncs, so the hot path never waits out a flush. (Fsyncing a file another
// path has since closed — rotation, compaction — just returns ErrClosed,
// which is fine: whoever closed it synced it first.)
func (l *Log) commitLoop() {
	defer l.committer.Done()
	tick := time.NewTicker(l.opts.SyncInterval)
	defer tick.Stop()
	for {
		select {
		case <-l.done:
			return
		case <-tick.C:
			l.mu.Lock()
			if l.crashed || l.closed {
				l.mu.Unlock()
				return
			}
			if kill, _ := chaos.Crash(chaos.PointWALFsync, detailSync); kill {
				l.freezeLocked()
				l.mu.Unlock()
				return
			}
			l.flushLocked()
			rotated := l.syncQ
			l.syncQ = nil
			f := l.f
			l.mu.Unlock()
			for _, old := range rotated {
				_ = old.Sync()
				_ = old.Close()
			}
			if f != nil {
				_ = f.Sync()
			}
		}
	}
}

// checkAppendLocked gates one append: closed/crashed state first, then the
// chaos fault point — exactly one decision per record boundary, which is
// what lets a test freeze the log at boundary k deterministically.
func (l *Log) checkAppendLocked(detail string) error {
	if l.closed {
		return ErrClosed
	}
	if l.crashed {
		return ErrCrashed
	}
	kill, err := chaos.Crash(chaos.PointWALAppend, detail)
	if kill {
		l.freezeLocked()
		return ErrCrashed
	}
	return err
}

// freezeLocked simulates the process dying at this record boundary: records
// buffered BEFORE the boundary flush and sync (they had every chance to be
// group-committed), the current and all later appends are lost, and the
// OnCrash hook freezes the sibling durable layer (the memo checkpoint).
func (l *Log) freezeLocked() {
	l.flushLocked()
	l.drainSyncQLocked()
	if l.f != nil {
		_ = l.f.Sync()
	}
	l.crashed = true
	if l.opts.OnCrash != nil {
		l.opts.OnCrash()
	}
}

// flushLocked writes the group-commit buffer to the segment file and rotates
// the segment if it outgrew SegmentBytes. Rotation happens only at flush
// boundaries, so a record never spans two segments.
func (l *Log) flushLocked() {
	if len(l.buf) == 0 || l.f == nil {
		return
	}
	if _, err := l.f.Write(l.buf); err == nil {
		l.segBytes += int64(len(l.buf))
	}
	l.buf = l.buf[:0]
	if l.segBytes >= l.opts.SegmentBytes {
		l.rotateLocked()
	}
}

// rotateLocked opens the next segment and queues the current one for its
// final sync+close on the committer, off the append path. Under the
// process-death crash model the written-but-unsynced tail survives in the
// page cache; the deferred fsync only narrows the machine-death window.
func (l *Log) rotateLocked() {
	next, err := os.OpenFile(filepath.Join(l.dir, segmentName(l.segIndex+1)),
		os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return // keep appending to the current segment; rotation is advisory
	}
	l.syncQ = append(l.syncQ, l.f)
	l.f = next
	l.segIndex++
	l.segBytes = 0
}

// drainSyncQLocked syncs and closes every rotated-out segment inline — the
// full-durability paths (freeze, Sync, Close, compaction) use it.
func (l *Log) drainSyncQLocked() {
	for _, f := range l.syncQ {
		_ = f.Sync()
		_ = f.Close()
	}
	l.syncQ = l.syncQ[:0]
}

// appendLocked frames the scratch body into the group-commit buffer. Large
// buffers flush inline so memory stays bounded between committer ticks.
func (l *Log) appendLocked() {
	l.buf = appendFrame(l.buf, l.scratch)
	if len(l.buf) >= 64<<10 {
		l.flushLocked()
	}
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
// fully-settled prefix so the slice stays O(live span).
func (l *Log) liveDelete(key int64) *liveTask {
	idx := key - l.liveBase
	if idx < 0 || idx >= int64(len(l.liveSeq)) || l.liveSeq[idx] == nil {
		return nil
	}
	lt := l.liveSeq[idx]
	l.liveSeq[idx] = nil
	l.liveN--
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
// payload bytes are copied into the log's buffers; the caller keeps
// ownership of p.
func (l *Log) Submit(app, memoKey, tenant string, priority, weight, maxRetries int, payload []byte) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.checkAppendLocked(detailSubmit); err != nil {
		return 0, err
	}
	key := l.nextKey
	l.nextKey++
	info := TaskInfo{
		Key: key, App: app, MemoKey: memoKey, Tenant: tenant,
		Priority: priority, Weight: weight, MaxRetries: maxRetries, Payload: payload,
	}
	l.scratch = append(l.scratch[:0], recSubmit)
	l.scratch = appendSubmitBody(l.scratch, &info)
	l.appendLocked()
	lt := l.takeLive()
	lt.body = append(lt.body, l.scratch[1:]...)
	l.livePut(key, lt)
	return key, nil
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
	l.mu.Lock()
	defer l.mu.Unlock()
	var first error
	for _, key := range keys {
		if err := l.checkAppendLocked(detailLaunch); err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		l.scratch = append(l.scratch[:0], recLaunch)
		l.scratch = appendUvarint(l.scratch, uint64(key))
		l.scratch = appendUvarint(l.scratch, 1)
		l.appendLocked()
		if lt := l.liveGet(key); lt != nil {
			lt.launches++
		}
	}
	return first
}

// Retry appends a further attempt: launch budget consumed, durable across
// any later crash.
func (l *Log) Retry(key int64, attempt int) error {
	return l.attemptRecord(recRetry, detailRetry, key, attempt)
}

func (l *Log) attemptRecord(rec byte, detail string, key int64, attempt int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.checkAppendLocked(detail); err != nil {
		return err
	}
	l.scratch = append(l.scratch[:0], rec)
	l.scratch = appendUvarint(l.scratch, uint64(key))
	l.scratch = appendUvarint(l.scratch, uint64(attempt))
	l.appendLocked()
	if lt := l.liveGet(key); lt != nil {
		lt.launches++
	}
	return nil
}

// Terminal appends a task's conclusion. digest locates the durable result:
// the memo key for done/memoized outcomes under memoization, "" otherwise.
func (l *Log) Terminal(key int64, outcome Outcome, digest string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.checkAppendLocked(detailTerminal); err != nil {
		return err
	}
	l.scratch = append(l.scratch[:0], recTerminal)
	l.scratch = appendUvarint(l.scratch, uint64(key))
	l.scratch = appendUvarint(l.scratch, uint64(outcome))
	l.scratch = appendString(l.scratch, digest)
	l.appendLocked()
	if lt := l.liveDelete(key); lt != nil {
		l.freeList = append(l.freeList, lt)
	}
	l.terminals++
	// Auto-compact only when the foldable history has caught up with the live
	// frontier: a snapshot rewrites O(live) bytes to retire O(terminals)
	// records, so requiring terminals ≥ live keeps the amortized cost per
	// record constant — a burst of submissions far ahead of completions never
	// pays a giant snapshot to fold a sliver of history.
	if l.opts.CompactEvery > 0 && l.terminals >= int64(l.opts.CompactEvery) &&
		l.terminals >= int64(l.liveN) {
		l.compactLocked()
	}
	return nil
}

// Sync flushes the group-commit buffer and fsyncs — the durability point
// tests and shutdown use; the committer provides it continuously.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.crashed || l.closed {
		return nil
	}
	l.flushLocked()
	l.drainSyncQLocked()
	if l.f != nil {
		return l.f.Sync()
	}
	return nil
}

// Compact folds terminal history into a snapshot: the full frontier is
// written to a fresh segment, fsynced, and the older segments deleted. Log
// size returns to O(live frontier). Replay of a compacted log yields the
// same live set, next key, and terminal total as replay of the original.
func (l *Log) Compact() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.crashed || l.closed {
		return nil
	}
	return l.compactLocked()
}

// compactLocked writes the snapshot segment before deleting anything, so a
// crash mid-compaction leaves either the old segments (snapshot ignored or
// absent) or the snapshot superseding them — never a torn frontier.
func (l *Log) compactLocked() error {
	l.flushLocked()
	l.scratch = append(l.scratch[:0], recSnapshot)
	l.scratch = appendUvarint(l.scratch, uint64(l.nextKey))
	l.scratch = appendUvarint(l.scratch, uint64(l.folded+l.terminals))
	l.scratch = appendUvarint(l.scratch, uint64(l.liveN))
	// The window is already in ascending key order, so compaction output is
	// deterministic for a given frontier (keeping the flip tests honest).
	for _, lt := range l.liveSeq {
		if lt == nil {
			continue
		}
		l.scratch = appendUvarint(l.scratch, uint64(lt.launches))
		l.scratch = appendBytes(l.scratch, lt.body)
	}
	newIdx := l.segIndex + 1
	path := filepath.Join(l.dir, segmentName(newIdx))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: compact: %w", err)
	}
	frame := appendFrame(nil, l.scratch)
	if _, err := f.Write(frame); err != nil {
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
	l.segBytes = int64(len(frame))
	l.folded += l.terminals
	l.terminals = 0
	return nil
}

// Close stops the committer, flushes, fsyncs, and closes the segment file.
// After an injected crash it closes the file without writing anything more.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	close(l.done)
	l.mu.Unlock()
	l.committer.Wait()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	if l.f == nil {
		return nil
	}
	var err error
	if !l.crashed {
		l.flushLocked()
		l.drainSyncQLocked()
		err = l.f.Sync()
	} else {
		for _, qf := range l.syncQ {
			_ = qf.Close()
		}
		l.syncQ = l.syncQ[:0]
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}
