package dfk

import (
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"
)

// TestSharedCacheCrossProcessHit is the cross-process result-reuse contract
// at the DFK boundary: two DFKs (standing in for two workflow processes)
// share one checkpoint file; work computed under the first settles on the
// second as a memo hit without re-execution, and only new arguments run.
func TestSharedCacheCrossProcessHit(t *testing.T) {
	var calls atomic.Int32
	fn := func(args []any, _ map[string]any) (any, error) {
		calls.Add(1)
		return fmt.Sprintf("sq-%d", args[0].(int)*args[0].(int)), nil
	}
	cpPath := filepath.Join(t.TempDir(), "checkpoint")
	withCheckpoint := func(c *Config) { c.Memoize = true; c.Checkpoint = cpPath }

	a := newDFK(t, withCheckpoint)
	squareA, _ := a.PythonApp("square", fn)
	if v, err := squareA.Call(7).Result(); err != nil || v != "sq-49" {
		t.Fatalf("first run: %v, %v", v, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("calls = %d after first run", calls.Load())
	}
	if err := a.Shutdown(); err != nil {
		t.Fatal(err)
	}

	// A fresh DFK preloads the file into an empty memo table: the repeated
	// call settles as memoized and never dispatches.
	b := newDFK(t, withCheckpoint)
	squareB, _ := b.PythonApp("square", fn)
	if v, err := squareB.Call(7).Result(); err != nil || v != "sq-49" {
		t.Fatalf("cross-process run: %v, %v", v, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("calls = %d, want 1 (checkpoint hit must not re-execute)", calls.Load())
	}
	if n := b.Summary()["memoized"]; n != 1 {
		t.Fatalf("memoized = %d, want 1: %v", n, b.Summary())
	}
	if hits, _ := b.Memoizer().Stats(); hits != 1 {
		t.Fatalf("memo hits = %d, want 1", hits)
	}

	// Different arguments are a different key: cold everywhere.
	if v, err := squareB.Call(8).Result(); err != nil || v != "sq-64" {
		t.Fatalf("cold args: %v, %v", v, err)
	}
	if calls.Load() != 2 {
		t.Fatalf("calls = %d, want 2", calls.Load())
	}
}
