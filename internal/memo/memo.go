// Package memo implements Parsl's app memoization and checkpointing (§4.1,
// §4.6): the DataFlowKernel computes a key from the app's name, a hash of
// its body, and a hash of its arguments, and consults a memo table (and,
// when configured, an on-disk checkpoint file) before launching a task.
// Program-level fault tolerance (§3.7) falls out of the checkpoint file: a
// re-executed program skips every app already called with the same
// arguments.
//
// # Checkpoint/WAL consistency contract
//
// The DFK stores a task's memo entry BEFORE appending its terminal record to
// the write-ahead log (internal/wal). Under the process-crash model both
// writes reach the OS synchronously, so a WAL terminal record implies the
// memo entry is at least as durable: recovery that finds a task terminal can
// always resolve its value from the checkpoint. The reverse window — memo
// entry written, terminal record lost — heals itself: the task replays as
// live, re-admits through the normal submit boundary, and the memo lookup
// hits, settling it without re-execution. A crash mid-write can still tear
// the checkpoint's final line; NewWithCheckpoint detects torn or corrupt
// lines (including an unterminated tail, which a later append would
// otherwise merge with and lose) and rewrites the file crash-atomically —
// temp file, fsync, rename — before reopening it for appends.
package memo

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/serialize"
)

// KeyFromPayload builds the memoization key — the "function name, body hash,
// and arguments" triple of §4.1 — from a task's encode-once argument payload:
// the args digest is the hash of the already-encoded bytes (canonical —
// kwargs are sorted inside the payload), so computing the key costs one hash
// sweep and zero gob encoders. Keys are stable across runs, which is what
// checkpoint reuse (§3.7) depends on.
//
// Compatibility: the args digest is the payload-codec digest
// (serialize.Payload.ArgsHash), pinned by golden tests and stable from
// payload version 1 onward. Checkpoint files written by builds that predate
// the encode-once payload used a gob-derived digest and go cold once — a
// one-time re-execution, never a wrong result, since unmatched keys only
// miss.
func KeyFromPayload(appName, bodyHash string, p *serialize.Payload) string {
	return appName + "|" + bodyHash + "|" + p.ArgsHash()
}

// entry is one memoized result. Failed results are never memoized — Parsl
// retries failures rather than caching them.
type entry struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
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
	cpPath string
	cpFile *os.File
	enc    *json.Encoder
	frozen bool

	hits, misses int64
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

// eachLocked calls fn on every entry, with the key it was stored under,
// until fn fails.
func (m *Memoizer) eachLocked(fn func(key string, v any) error) error {
	for prefix, byDigest := range m.digests {
		for digest, v := range byDigest {
			if err := fn(string(serialize.AppendDigest([]byte(prefix+"|"), digest)), v); err != nil {
				return err
			}
		}
	}
	for key, v := range m.other {
		if err := fn(key, v); err != nil {
			return err
		}
	}
	return nil
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

// NewWithCheckpoint returns a memoizer that appends every stored result to
// the JSONL checkpoint file at path, creating it if needed, and preloads any
// results already in it (the "re-execute a program without re-running
// completed apps" workflow). A checkpoint torn by a crash mid-write — a
// corrupt line, or a final line with no terminating newline — is healed
// crash-atomically (rewritten to a temp file, fsynced, renamed over the
// original) before the file is reopened for appends, so the torn tail can
// never swallow the next entry appended after it.
func NewWithCheckpoint(path string) (*Memoizer, error) {
	m := New()
	clean, err := m.loadCheckpoint(path)
	exists := true
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
		exists = false
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("memo: checkpoint dir: %w", err)
	}
	if exists && !clean {
		if err := m.healCheckpoint(path); err != nil {
			return nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("memo: open checkpoint: %w", err)
	}
	m.cpPath = path
	m.cpFile = f
	m.enc = json.NewEncoder(f)
	return m, nil
}

// loadCheckpoint merges the file's entries into the table, reporting whether
// the file was clean: clean=false means a corrupt line or an unterminated
// final line — both the signature of a crash mid-write, both healable by
// rewriting the surviving entries.
func (m *Memoizer) loadCheckpoint(path string) (clean bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	clean = true
	for len(data) > 0 {
		var line []byte
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			// Unterminated tail: a crash interrupted the final append. Even
			// if the fragment parses, the missing newline would merge it with
			// the next appended entry, losing both — heal required.
			line, data = data, nil
			clean = false
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var e entry
		if err := json.Unmarshal(line, &e); err != nil {
			clean = false
			continue
		}
		m.mu.Lock()
		m.putLocked(e.Key, e.Value)
		m.mu.Unlock()
	}
	return clean, nil
}

// healCheckpoint rewrites the checkpoint from the loaded table via temp
// file + fsync + rename, the crash-atomic sequence: a crash at any point
// leaves either the old (torn but loadable) file or the complete new one.
func (m *Memoizer) healCheckpoint(path string) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("memo: heal checkpoint: %w", err)
	}
	enc := json.NewEncoder(f)
	m.mu.RLock()
	err = m.eachLocked(func(key string, v any) error { return enc.Encode(entry{Key: key, Value: v}) })
	m.mu.RUnlock()
	if err != nil {
		_ = f.Close()
		return fmt.Errorf("memo: heal checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("memo: heal checkpoint sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("memo: heal checkpoint close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("memo: heal checkpoint rename: %w", err)
	}
	// Make the rename itself durable.
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		_ = dir.Sync()
		_ = dir.Close()
	}
	return nil
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

// LoadCheckpoint merges entries from a JSONL checkpoint file into the table.
// Corrupt trailing lines (from a crash mid-write) are skipped, not fatal:
// losing the last checkpoint entry only costs one re-execution.
func (m *Memoizer) LoadCheckpoint(path string) error {
	_, err := m.loadCheckpoint(path)
	return err
}

// Lookup returns the memoized value for key, if any.
func (m *Memoizer) Lookup(key string) (any, bool) {
	m.mu.RLock()
	v, ok := m.getLocked(key)
	m.mu.RUnlock()
	m.cpMu.Lock()
	if ok {
		m.hits++
	} else {
		m.misses++
	}
	m.cpMu.Unlock()
	return v, ok
}

// Store records a successful result under key and, when checkpointing is
// enabled, appends it durably.
func (m *Memoizer) Store(key string, value any) error {
	m.mu.Lock()
	m.putLocked(key, value)
	m.mu.Unlock()

	m.cpMu.Lock()
	defer m.cpMu.Unlock()
	if m.enc == nil || m.frozen {
		return nil
	}
	if err := m.enc.Encode(entry{Key: key, Value: value}); err != nil {
		return fmt.Errorf("memo: checkpoint write: %w", err)
	}
	return nil
}

// Stats returns cumulative (hits, misses).
func (m *Memoizer) Stats() (hits, misses int64) {
	m.cpMu.Lock()
	defer m.cpMu.Unlock()
	return m.hits, m.misses
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
	m.enc = nil
	return err
}
