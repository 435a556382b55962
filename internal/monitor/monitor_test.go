package monitor

import (
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func ev(task int64, to string, at time.Time) Event {
	return Event{Kind: KindTaskState, TaskID: task, To: to, At: at}
}

func TestStoreEmitAndQuery(t *testing.T) {
	s := NewStore()
	now := time.Now()
	s.Emit(ev(1, "pending", now))
	s.Emit(ev(1, "launched", now.Add(time.Millisecond)))
	s.Emit(Event{Kind: KindHealth, Executor: "htex", At: now})
	if s.Len() != 3 {
		t.Fatalf("len = %d", s.Len())
	}
	if got := s.Events(KindTaskState); len(got) != 2 {
		t.Fatalf("task events = %d", len(got))
	}
	if got := s.Events(""); len(got) != 3 {
		t.Fatalf("all events = %d", len(got))
	}
	hist := s.TaskHistory(1)
	if len(hist) != 2 || hist[0].To != "pending" || hist[1].To != "launched" {
		t.Fatalf("history = %+v", hist)
	}
}

func TestStateCountsUsesFinalState(t *testing.T) {
	s := NewStore()
	now := time.Now()
	s.Emit(ev(1, "pending", now))
	s.Emit(ev(1, "done", now))
	s.Emit(ev(2, "pending", now))
	s.Emit(ev(3, "failed", now))
	counts := s.StateCounts()
	if counts["done"] != 1 || counts["pending"] != 1 || counts["failed"] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

// TestExecutionSpans builds spans from the task-state events a DFK emits: one
// per attempt, from "launched" to the next "done", "failed" or "retrying",
// labeled with the launching executor. A requeue (an attempt that timed out
// before it launched) and an attempt still in flight make no span.
func TestExecutionSpans(t *testing.T) {
	s := NewStore()
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	state := func(task int64, from, to, executor string, ms int) {
		s.Emit(Event{Kind: KindTaskState, TaskID: task, From: from, To: to, Executor: executor, At: at(ms)})
	}
	state(1, "", "pending", "", 0)
	state(2, "", "pending", "", 0)
	state(3, "", "pending", "", 0)
	state(4, "", "pending", "", 0)
	state(1, "pending", "launched", "tp", 1)
	state(2, "pending", "launched", "htex", 2)
	state(1, "launched", "done", "tp", 100)
	state(2, "launched", "retrying", "htex", 20)
	state(2, "retrying", "launched", "tp", 30)
	state(2, "launched", "failed", "tp", 50)
	state(3, "pending", "requeued", "", 5)
	state(3, "pending", "launched", "tp", 6) // never finished
	state(4, "pending", "memoized", "", 1)
	spans := s.ExecutionSpans()
	want := []Span{
		{TaskID: 1, Executor: "tp", Start: at(1), End: at(100)},
		{TaskID: 2, Executor: "htex", Start: at(2), End: at(20)},
		{TaskID: 2, Executor: "tp", Start: at(30), End: at(50)},
	}
	if len(spans) != len(want) {
		t.Fatalf("spans = %+v, want %+v", spans, want)
	}
	for i := range want {
		if spans[i] != want[i] {
			t.Fatalf("span %d = %+v, want %+v", i, spans[i], want[i])
		}
	}
}

func TestFileSinkRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mon.jsonl")
	fs, err := NewFileSink(path)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().Round(0)
	fs.Emit(ev(1, "done", now))
	fs.Emit(Event{Kind: KindHealth, Executor: "htex", Detail: "cpu=0.5", At: now})
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("read %d events", len(events))
	}
	if events[0].TaskID != 1 || events[0].To != "done" {
		t.Fatalf("event0 = %+v", events[0])
	}
	if events[1].Detail != "cpu=0.5" {
		t.Fatalf("event1 = %+v", events[1])
	}
}

func TestFileSinkEmitAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mon.jsonl")
	fs, err := NewFileSink(path)
	if err != nil {
		t.Fatal(err)
	}
	_ = fs.Close()
	fs.Emit(ev(1, "done", time.Now())) // must not panic
	if err := fs.Close(); err != nil { // double close safe
		t.Fatal(err)
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("missing file read succeeded")
	}
}

func TestNopSink(t *testing.T) {
	var n Nop
	n.Emit(ev(1, "done", time.Now()))
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentEmit(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				s.Emit(ev(int64(i), "running", time.Now()))
			}
		}(i)
	}
	wg.Wait()
	if s.Len() != 3200 {
		t.Fatalf("len = %d", s.Len())
	}
}
