// Package memo implements Parsl's app memoization and checkpointing (§4.1,
// §4.6): the DataFlowKernel computes a key from the app's name, a hash of
// its body, and a hash of its arguments, and consults a memo table (and,
// when configured, an on-disk checkpoint file) before launching a task.
// Program-level fault tolerance (§3.7) falls out of the checkpoint file: a
// re-executed program skips every app already called with the same
// arguments and gets back exactly the values it stored, types included.
//
// The checkpoint is a file of internal/wal record frames, read under the
// WAL's torn-tail rule: a torn final record is truncated at open (and the
// truncation fsynced before the next append), damage before an intact record
// fails the open and leaves the file untouched. A record body is a uvarint key
// length, the key, and the value as serialize.EncodeArgs encodes a
// one-element list. A value the codec refuses stays in memory only, and Store
// says so; a record this process cannot decode (a gob type not registered
// here) is skipped, costing one re-execution. A JSON-lines checkpoint from
// before frames holds no intact frame, so it goes cold once.
//
// The checkpoint is a cache, also under the write-ahead log: a finished
// task's value is durable in its terminal record, so a checkpoint record
// lost to a crash costs one re-execution, never a wrong or missing recovery.
package memo

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/serialize"
	"repro/internal/wal"
)

// KeyFromPayload builds the memoization key — the "function name, body hash,
// and arguments" triple of §4.1 — from a task's encode-once argument payload:
// the args digest is the hash of the canonical encoding (kwargs are sorted
// inside the payload), so computing the key costs one hash sweep and zero
// gob encoders. A value snapshot's bytes are built here, on its first
// Bytes, and kept for the WAL, the wire and retries. Keys are stable across
// runs, which is what checkpoint reuse (§3.7) depends on.
//
// Compatibility: the args digest is the payload-codec digest
// (serialize.Payload.ArgsHash), pinned by golden tests and stable from
// payload version 1 onward.
func KeyFromPayload(appName, bodyHash string, p *serialize.Payload) string {
	p.Bytes()
	return appName + "|" + bodyHash + "|" + p.ArgsHash()
}

// Memoizer is the in-memory memo table with optional checkpoint persistence.
//
// A key of KeyFromPayload's shape — a prefix, "|", and 16 lower-case hex
// digits — is held as its args digest under its prefix, which is stored once
// per app, so an entry holds no key string (about half an entry's memory
// otherwise). The digest converts back to exactly the same text: no hash, no
// collisions. Any other key, an explicit memo key for one, is held whole.
type Memoizer struct {
	mu      sync.RWMutex
	digests map[string]map[uint64]any // app|body prefix → args digest → value
	other   map[string]any

	cpMu   sync.Mutex
	cpFile *os.File
	cpErr  error // the first failed write, sticky: a later frame would follow a partial one
	frozen bool

	hits, misses atomic.Int64
}

// New returns an empty memoizer with no checkpoint file.
func New() *Memoizer {
	return &Memoizer{digests: make(map[string]map[uint64]any), other: make(map[string]any)}
}

// splitKey returns key's prefix and args digest when key has KeyFromPayload's
// shape; ok is false for any other key.
func splitKey(key string) (prefix string, digest uint64, ok bool) {
	i := len(key) - 16
	if i < 1 || key[i-1] != '|' {
		return "", 0, false
	}
	for _, c := range []byte(key[i:]) {
		switch {
		case '0' <= c && c <= '9':
			digest = digest<<4 | uint64(c-'0')
		case 'a' <= c && c <= 'f':
			digest = digest<<4 | uint64(c-'a'+10)
		default:
			return "", 0, false
		}
	}
	return key[:i-1], digest, true
}

// getLocked and putLocked are the table's two operations, under mu.
func (m *Memoizer) getLocked(key string) (any, bool) {
	if prefix, digest, ok := splitKey(key); ok {
		v, ok := m.digests[prefix][digest]
		return v, ok
	}
	v, ok := m.other[key]
	return v, ok
}

func (m *Memoizer) putLocked(key string, value any) {
	prefix, digest, ok := splitKey(key)
	if !ok {
		m.other[key] = value
		return
	}
	byDigest := m.digests[prefix]
	if byDigest == nil {
		byDigest = make(map[uint64]any)
		// prefix is a substring of key: a copy keeps key itself unreferenced.
		m.digests[strings.Clone(prefix)] = byDigest
	}
	byDigest[digest] = value
}

// NewWithCheckpoint returns a memoizer that preloads the checkpoint file at
// path, creating it if needed, and appends every stored result to it (the
// "re-execute a program without re-running completed apps" workflow).
func NewWithCheckpoint(path string) (*Memoizer, error) {
	m := New()
	good, torn, err := m.load(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("memo: checkpoint dir: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("memo: open checkpoint: %w", err)
	}
	if torn {
		if err = f.Truncate(good); err == nil {
			err = f.Sync()
		}
	}
	if err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("memo: truncate torn checkpoint tail: %w", err)
	}
	m.cpFile = f
	return m, nil
}

// load merges the checkpoint file at path into the table, returning the
// offset just past its last whole record and whether a torn tail follows.
func (m *Memoizer) load(path string) (good int64, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, false, err
	}
	good, torn, err = wal.WalkFrames(data, func(body []byte) error {
		// A record this process cannot decode is skipped: one re-execution.
		n, w := binary.Uvarint(body)
		if w <= 0 || n > uint64(len(body)-w) {
			return nil
		}
		end := w + int(n)
		args, kwargs, err := serialize.DecodeArgsBytes(body[end:])
		if err == nil && len(args) == 1 && kwargs == nil {
			m.mu.Lock()
			m.putLocked(string(body[w:end]), args[0])
			m.mu.Unlock()
		}
		return nil
	})
	if err != nil {
		err = fmt.Errorf("memo: checkpoint %s: %w", path, err)
	}
	return good, torn, err
}

// encodeRecord frames key and v as one checkpoint record.
func encodeRecord(key string, v any) ([]byte, error) {
	p, err := serialize.EncodeArgs([]any{v}, nil)
	if err != nil {
		return nil, err
	}
	defer p.Release()
	body := binary.AppendUvarint(make([]byte, 0, binary.MaxVarintLen64+len(key)+p.Len()), uint64(len(key)))
	return wal.AppendFrame(nil, append(append(body, key...), p.Bytes()...))
}

// Freeze stops all further checkpoint writes, simulating a crashed process's
// disk state: entries stored after Freeze stay in memory (the live process
// continues) but never reach the file. The chaos plane's WAL crash injection
// freezes the memoizer and the log at the same record boundary, so a
// simulated crash leaves both durable layers consistent.
func (m *Memoizer) Freeze() {
	m.cpMu.Lock()
	m.frozen = true
	m.cpMu.Unlock()
}

// LoadCheckpoint merges the checkpoint file at path into the table. A torn
// tail is skipped; damage before an intact record is an error.
func (m *Memoizer) LoadCheckpoint(path string) error {
	_, _, err := m.load(path)
	return err
}

// Lookup returns the memoized value for key, if any.
func (m *Memoizer) Lookup(key string) (any, bool) {
	m.mu.RLock()
	v, ok := m.getLocked(key)
	m.mu.RUnlock()
	if ok {
		m.hits.Add(1)
	} else {
		m.misses.Add(1)
	}
	return v, ok
}

// Store records a successful result under key and, when checkpointing is
// enabled, appends it to the file in one Write. The entry is in the table
// either way; an error means it is not in the file — the codec refused the
// value, or the write failed (which sticks: every later Store reports it).
func (m *Memoizer) Store(key string, value any) error {
	m.mu.Lock()
	m.putLocked(key, value)
	m.mu.Unlock()

	m.cpMu.Lock()
	defer m.cpMu.Unlock()
	if m.cpFile == nil || m.frozen || m.cpErr != nil {
		return m.cpErr
	}
	frame, err := encodeRecord(key, value)
	if err != nil {
		return fmt.Errorf("memo: checkpoint %q: %w", key, err)
	}
	if _, err := m.cpFile.Write(frame); err != nil {
		m.cpErr = fmt.Errorf("memo: checkpoint write: %w", err)
		return m.cpErr
	}
	return nil
}

// Stats returns cumulative (hits, misses).
func (m *Memoizer) Stats() (hits, misses int64) {
	return m.hits.Load(), m.misses.Load()
}

// Close syncs the checkpoint file to stable storage and closes it.
func (m *Memoizer) Close() error {
	m.cpMu.Lock()
	defer m.cpMu.Unlock()
	if m.cpFile == nil {
		return nil
	}
	err := m.cpFile.Sync()
	if cerr := m.cpFile.Close(); err == nil {
		err = cerr
	}
	m.cpFile = nil
	return err
}
