package dfk

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/executor"
	"repro/internal/executor/threadpool"
)

// TestFiredTimerKeepsAttemptFromPool races attempt timeouts against their
// attempts' own success. An attempt that succeeds after its timer fired — the
// timer's Stop reports false, its SetError not yet run — must not go back to
// the attempt pool: the late SetError would land on whichever task took the
// attempt next. Tasks whose timeout is near their body time run interleaved,
// on a two-worker pool, with tasks that have neither a timeout nor a retry,
// so a plain task failing with ErrTimeout is that misplaced SetError.
func TestFiredTimerKeepsAttemptFromPool(t *testing.T) {
	d := newDFK(t, func(c *Config) {
		c.Executors = []executor.Executor{threadpool.New("tp", 2, c.Registry)}
	})
	const body = 200 * time.Microsecond
	spin, err := d.PythonApp("spin-near-timeout", func(args []any, _ map[string]any) (any, error) {
		for start := time.Now(); time.Since(start) < body; {
		}
		return args[0], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const submitters, rounds = 2, 4000
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < rounds; i += submitters {
				// From the body time to 1.47 times it, in steps of a 32nd:
				// most timers fire while their attempt runs or just after.
				timeout := body + time.Duration(i%16)*body/32
				timed := spin.Submit(ctx, []any{i}, WithTimeout(timeout), WithRetries(0))
				plain := spin.Submit(ctx, []any{-i - 1}, WithRetries(0))
				if v, err := timed.Result(); (err != nil && !errors.Is(err, ErrTimeout)) || (err == nil && v != i) {
					t.Errorf("timed task %d: %v, %v", i, v, err)
					return
				}
				if v, err := plain.Result(); err != nil || v != -i-1 {
					t.Errorf("task %d without a timeout: %v, %v", -i-1, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	d.WaitAll()
	if out := d.Outstanding(); out != 0 {
		t.Fatalf("Outstanding = %d after drain, want 0", out)
	}
}
