// Package monitor implements Parsl's monitoring subsystem (§4.6): the DFK
// logs task state transitions — the only record of a task's history — and
// its planes' events, and a modular sink interface lets the data land in an
// in-memory store (the analogue of the SQL database), a JSONL file, or both.
// The query API over the in-memory store is what cmd/parsl-monitor and the
// elasticity experiment's utilization computation (Fig. 6) read.
package monitor

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// EventKind classifies monitoring records.
type EventKind string

// Event kinds emitted by the DFK and executors.
const (
	KindTaskState EventKind = "task_state"
	// KindTenant records multi-tenant admission outcomes: Detail is "shed"
	// (quota exceeded under the shed policy) or "admitted" (a submission
	// that had to wait under the block policy; Duration is the wait).
	KindTenant EventKind = "tenant"
	// KindGraph records task-graph reclamation: emitted (rate-limited) when
	// a graph shard prunes terminal records, with Detail describing the
	// shard's cumulative pruned count and the graph's live-node count.
	KindGraph EventKind = "graph"
	// KindWAL records durable-state lifecycle: a replay summary when the DFK
	// recovers a crashed log (Detail carries live/terminal/re-admitted
	// counts), compaction, append errors, and memo checkpoint writes that
	// failed (Detail "checkpoint: ..."; the result stays in memory only).
	KindWAL EventKind = "wal"
	// KindHealth records the self-healing plane: breaker transitions (From/To
	// carry the states, Executor names the breaker), backoff-scheduled retries
	// (Detail carries the class, Duration the delay; rate-limited like graph
	// events), and poison-task quarantine (Detail carries the kill history).
	KindHealth EventKind = "health"
)

// Event is one monitoring record.
type Event struct {
	Kind     EventKind     `json:"kind"`
	At       time.Time     `json:"at"`
	TaskID   int64         `json:"task_id,omitempty"`
	App      string        `json:"app,omitempty"`
	From     string        `json:"from,omitempty"`
	To       string        `json:"to,omitempty"`
	Executor string        `json:"executor,omitempty"`
	Tenant   string        `json:"tenant,omitempty"`
	Duration time.Duration `json:"duration,omitempty"`
	Detail   string        `json:"detail,omitempty"`
}

// Sink consumes events. Implementations must be safe for concurrent Emit.
type Sink interface {
	Emit(Event)
	Close() error
}

// Store is the in-memory sink with a query API — the stand-in for Parsl's
// SQL monitoring database.
type Store struct {
	mu     sync.RWMutex
	events []Event
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{} }

// Emit implements Sink.
func (s *Store) Emit(e Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

// Close implements Sink.
func (s *Store) Close() error { return nil }

// Len returns the number of stored events.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.events)
}

// Events returns a snapshot filtered by kind ("" = all), ordered as emitted.
func (s *Store) Events(kind EventKind) []Event {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Event
	for _, e := range s.events {
		if kind == "" || e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// TaskHistory returns the state transitions for one task in order.
func (s *Store) TaskHistory(taskID int64) []Event {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Event
	for _, e := range s.events {
		if e.Kind == KindTaskState && e.TaskID == taskID {
			out = append(out, e)
		}
	}
	return out
}

// StateCounts tallies final states across all tasks.
func (s *Store) StateCounts() map[string]int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	final := make(map[int64]string)
	for _, e := range s.events {
		if e.Kind == KindTaskState {
			final[e.TaskID] = e.To
		}
	}
	counts := make(map[string]int)
	for _, st := range final {
		counts[st]++
	}
	return counts
}

// Span is one execution attempt, [Start, End), labeled with its task and the
// executor it was launched on; used to compute utilization timelines.
type Span struct {
	TaskID   int64
	Executor string
	Start    time.Time
	End      time.Time
}

// ExecutionSpans reconstructs one span per attempt: from a task's "launched"
// event to its next "done", "failed" or "retrying" event, ordered by start.
// An attempt still in flight has no span.
func (s *Store) ExecutionSpans() []Span {
	s.mu.RLock()
	defer s.mu.RUnlock()
	starts := make(map[int64]Event)
	var spans []Span
	for _, e := range s.events {
		if e.Kind != KindTaskState {
			continue
		}
		switch e.To {
		case "launched":
			starts[e.TaskID] = e
		case "done", "failed", "retrying":
			if b, ok := starts[e.TaskID]; ok {
				spans = append(spans, Span{TaskID: e.TaskID, Executor: b.Executor, Start: b.At, End: e.At})
				delete(starts, e.TaskID)
			}
		}
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	return spans
}

// FileSink appends events as JSONL — the "files" storage option of §4.6.
type FileSink struct {
	mu  sync.Mutex
	f   *os.File
	enc *json.Encoder
}

// NewFileSink creates (or truncates) a JSONL sink at path.
func NewFileSink(path string) (*FileSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("monitor: create sink: %w", err)
	}
	return &FileSink{f: f, enc: json.NewEncoder(f)}, nil
}

// Emit implements Sink.
func (fs *FileSink) Emit(e Event) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.enc != nil {
		_ = fs.enc.Encode(e)
	}
}

// Close implements Sink.
func (fs *FileSink) Close() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.f == nil {
		return nil
	}
	err := fs.f.Close()
	fs.f, fs.enc = nil, nil
	return err
}

// ReadFile loads a JSONL event file back into memory (for cmd/parsl-monitor).
func ReadFile(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	var out []Event
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			continue
		}
		out = append(out, e)
	}
	return out, sc.Err()
}

// Nop discards all events; the DFK uses it when monitoring is disabled so
// call sites never nil-check.
type Nop struct{}

// Emit implements Sink.
func (Nop) Emit(Event) {}

// Close implements Sink.
func (Nop) Close() error { return nil }
