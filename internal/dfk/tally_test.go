package dfk

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/future"
)

// TestOutstandingAndSummaryTallies: the DFK keeps no task table, so its
// counters alone answer Outstanding and Summary. With bodies parked,
// Outstanding counts every task in flight, a task waiting on a parked input
// included, and reads 0 once WaitAll returns. Under concurrent submitters
// whose tasks succeed, fail, fail on a failed input or are canceled, plus a
// memo hit, each outcome's tally matches what the futures report and the
// three add up to the submissions exactly.
func TestOutstandingAndSummaryTallies(t *testing.T) {
	d := newDFK(t, nil)
	release := make(chan struct{})
	var releaseOnce sync.Once
	open := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(open)
	park, err := d.PythonApp("tally-park", func([]any, map[string]any) (any, error) {
		<-release
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ok, err := d.PythonApp("tally-ok", func(args []any, _ map[string]any) (any, error) { return args[0], nil })
	if err != nil {
		t.Fatal(err)
	}
	bad, err := d.PythonApp("tally-bad", func([]any, map[string]any) (any, error) {
		return nil, errors.New("tally: bad")
	})
	if err != nil {
		t.Fatal(err)
	}
	memo, err := d.PythonApp("tally-memo", func(args []any, _ map[string]any) (any, error) {
		return args[0], nil
	}, WithMemoize(true))
	if err != nil {
		t.Fatal(err)
	}

	const parked = 3
	first := park.Call()
	for i := 1; i < parked; i++ {
		park.Call()
	}
	waiting := ok.Call(first)
	if got := d.Outstanding(); got != parked+1 {
		t.Fatalf("Outstanding = %d with %d bodies parked and one task waiting on them, want %d", got, parked, parked+1)
	}
	if n := concluded(d); n != 0 {
		t.Fatalf("%d tasks concluded while every body was parked", n)
	}
	open()
	if _, err := waiting.Result(); err != nil {
		t.Fatal(err)
	}
	d.WaitAll()
	if got := d.Outstanding(); got != 0 {
		t.Fatalf("Outstanding = %d after WaitAll, want 0", got)
	}
	if s := d.Summary(); s["done"] != parked+1 || concluded(d) != parked+1 {
		t.Fatalf("Summary = %v, want %d done", s, parked+1)
	}

	// The memo hit: the same call twice, the second served from the table.
	for range 2 {
		if v, err := memo.Call(7).Result(); err != nil || v != 7 {
			t.Fatalf("memo call = %v, %v", v, err)
		}
	}

	const submitters, rounds = 4, 100
	var mu sync.Mutex
	var wg sync.WaitGroup
	var all []error
	for g := range submitters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var futs []*future.Future
			for i := range rounds {
				switch i % 4 {
				case 0:
					futs = append(futs, ok.Call(g*rounds+i))
				case 1:
					futs = append(futs, bad.Call(i))
				case 2:
					// Canceled after Submit returns, so the task exists and
					// races its own execution: it ends done or failed.
					ctx, cancel := context.WithCancel(context.Background())
					futs = append(futs, ok.Submit(ctx, []any{i}))
					cancel()
				case 3:
					in := bad.Call(i)
					futs = append(futs, in, ok.Call(in))
				}
			}
			errs := make([]error, len(futs))
			for k, f := range futs {
				_, errs[k] = f.Result()
			}
			mu.Lock()
			all = append(all, errs...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	d.WaitAll()

	done, failed := parked+1+1, 0 // the parked phase, and the memo app's first call
	for _, err := range all {
		if err == nil {
			done++
		} else {
			failed++
		}
	}
	submissions := parked + 1 + 2 + len(all)
	s := d.Summary()
	if s["done"] != done || s["failed"] != failed || s["memoized"] != 1 {
		t.Fatalf("Summary = %v, want done %d, failed %d, memoized 1", s, done, failed)
	}
	if n := s["done"] + s["failed"] + s["memoized"]; n != submissions {
		t.Fatalf("tallies add up to %d, want the %d submissions", n, submissions)
	}
	if got := d.Outstanding(); got != 0 {
		t.Fatalf("Outstanding = %d after WaitAll, want 0", got)
	}
}
