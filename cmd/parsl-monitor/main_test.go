package main

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/dfk"
	"repro/internal/executor"
	"repro/internal/executor/threadpool"
	"repro/internal/future"
	"repro/internal/monitor"
	"repro/internal/serialize"
)

// runToFile runs one plain task and one task whose first attempt fails on a
// threadpool DFK with a FileSink attached, and returns the file and the retried
// task's id.
func runToFile(t *testing.T) (string, int64) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.jsonl")
	sink, err := monitor.NewFileSink(path)
	if err != nil {
		t.Fatal(err)
	}
	reg := serialize.NewRegistry()
	d, err := dfk.New(dfk.Config{
		Registry:  reg,
		Executors: []executor.Executor{threadpool.New("tp", 2, reg)},
		Monitor:   sink,
		Retries:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	echo, err := d.PythonApp("echo", func(args []any, _ map[string]any) (any, error) { return args[0], nil })
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int32
	flaky, err := d.PythonApp("flaky", func(args []any, _ map[string]any) (any, error) {
		if calls.Add(1) == 1 {
			return nil, errors.New("first attempt fails")
		}
		return args[0], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	plain, retried := echo.Call(1), flaky.Call(2)
	for _, f := range []*future.Future{plain, retried} {
		if _, err := f.Result(); err != nil {
			t.Fatal(err)
		}
	}
	// Shutdown closes the sink, flushing the file.
	if err := d.Shutdown(); err != nil {
		t.Fatal(err)
	}
	return path, retried.TaskID
}

// TestFileRoundTrip writes a monitoring file from a real run, reads it back
// the way main does, and checks each of the three views.
func TestFileRoundTrip(t *testing.T) {
	path, retriedID := runToFile(t)
	events, err := monitor.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	store := monitor.NewStore()
	for _, e := range events {
		store.Emit(e)
	}

	var summary bytes.Buffer
	printSummary(&summary, store)
	if !strings.Contains(summary.String(), "execution spans: 3,") {
		t.Fatalf("summary lacks the spans line for 3 attempts:\n%s", summary.String())
	}

	var task bytes.Buffer
	printTask(&task, store, retriedID)
	out := task.String()
	// Header, then pending, launched, retrying, launched, done.
	if !strings.HasPrefix(out, fmt.Sprintf("task %d (flaky):", retriedID)) ||
		strings.Count(out, "\n") != 6 || !strings.Contains(out, "-> retrying") {
		t.Fatalf("task %d history:\n%s", retriedID, out)
	}

	var timeline bytes.Buffer
	printTimeline(&timeline, store)
	busy := false
	for _, line := range strings.Split(timeline.String(), "\n") {
		var sec, n int
		if _, err := fmt.Sscanf(strings.TrimSpace(line), "t+%ds %d", &sec, &n); err == nil && n > 0 {
			busy = true
		}
	}
	if !busy {
		t.Fatalf("timeline has no non-empty bucket:\n%s", timeline.String())
	}
}
