package workload

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/future"
	"repro/internal/monitor"
)

// taskStates emits one KindTaskState transition per entry of tos for task id.
func taskStates(store *monitor.Store, id int64, tos ...string) {
	for _, to := range tos {
		store.Emit(monitor.Event{Kind: monitor.KindTaskState, TaskID: id, To: to})
	}
}

func settled(v any, err error) *future.Future {
	f := future.New()
	if err != nil {
		_ = f.SetError(err)
	} else {
		_ = f.SetResult(v)
	}
	return f
}

// TestKitCheckersFire feeds each kit checker one synthetic bad input and
// asserts it reports exactly the violation it exists to catch — a checker
// that cannot fire proves nothing about the runs it passes.
func TestKitCheckersFire(t *testing.T) {
	double := func(i int) int { return i * 2 }
	cases := []struct {
		name  string
		check func(vs *violations)
		want  []string // one substring per expected violation, in order
	}{
		{
			name: "clean inputs report nothing",
			check: func(vs *violations) {
				store := monitor.NewStore()
				taskStates(store, 1, "pending", "launched", "done")
				taskStates(store, 2, "pending", "memoized")
				checkExactlyOnce(vs, store, 0, nil)
				checkValues(vs, []*future.Future{settled(0, nil), settled(2, nil)}, nil, double)
				checkBoundedReexec(vs, 3, 3, "the kill")
			},
		},
		{
			name: "task reaching two terminals",
			check: func(vs *violations) {
				store := monitor.NewStore()
				taskStates(store, 7, "pending", "launched", "done", "done")
				checkExactlyOnce(vs, store, 1, nil)
			},
			want: []string{`task 7 reached a terminal state 2 times (final "done")`},
		},
		{
			name: "task never reaching a terminal",
			check: func(vs *violations) {
				store := monitor.NewStore()
				taskStates(store, 8, "pending", "launched")
				checkExactlyOnce(vs, store, 1, nil)
			},
			want: []string{`task 8 reached a terminal state 0 times (final "launched")`},
		},
		{
			name: "task launched Retries+2 times",
			check: func(vs *violations) {
				const retries = 2
				store := monitor.NewStore()
				taskStates(store, 9, "pending", "launched", "launched", "launched", "launched", "done")
				st := checkExactlyOnce(vs, store, retries, nil)
				if st.Retried != 1 || st.ExtraLaunches != 3 || st.MaxLaunches != 4 {
					t.Errorf("launch stats %+v, want 1 retried, 3 extra, max 4", st)
				}
			},
			want: []string{"task 9 launched 4 times (0 before this lifetime), budget 2+1"},
		},
		{
			name: "launch budget spans lifetimes",
			check: func(vs *violations) {
				store := monitor.NewStore()
				taskStates(store, 3, "pending", "launched", "done")
				checkExactlyOnce(vs, store, 1, map[int64]int{3: 2})
			},
			want: []string{"task 3 launched 3 times (2 before this lifetime), budget 1+1"},
		},
		{
			name: "future carrying the wrong value, and a lost one",
			check: func(vs *violations) {
				futs := []*future.Future{settled(10, nil), settled(99, nil), settled(nil, errors.New("boom")), settled(16.0, nil)}
				if failed := checkValues(vs, futs, []int{5, 6, 7, 8}, double); failed != 1 {
					t.Errorf("checkValues reported %d failed futures, want 1", failed)
				}
			},
			want: []string{"task arg 6: value 99 (int), want 12 (int)", "task arg 7 lost: boom", "task arg 8: value 16 (float64), want 16 (int)"},
		},
		{
			name: "re-execution above the reported lost set",
			check: func(vs *violations) {
				checkBoundedReexec(vs, 37, 15, "the kill of shard 1")
			},
			want: []string{"37 tasks re-executed but the kill of shard 1 lost only 15"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var vs violations
			tc.check(&vs)
			if len(vs) != len(tc.want) {
				t.Fatalf("violations %q, want %d matching %q", []string(vs), len(tc.want), tc.want)
			}
			for i, want := range tc.want {
				if !strings.Contains(vs[i], want) {
					t.Errorf("violation %d = %q, want it to contain %q", i, vs[i], want)
				}
			}
		})
	}
}

// TestAwaitAllReportsUnsettled pins the watchdog wait: a future that never
// settles is reported as unsettled once the deadline passes — not waited on
// forever — and settled futures are not counted.
func TestAwaitAllReportsUnsettled(t *testing.T) {
	const watchdog = 50 * time.Millisecond
	futs := []*future.Future{settled(1, nil), future.New(), settled(2, nil), future.New()}
	start := time.Now()
	unsettled := awaitAll(futs, start.Add(watchdog))
	if unsettled != 2 {
		t.Errorf("awaitAll reported %d unsettled futures, want 2", unsettled)
	}
	if waited := time.Since(start); waited < watchdog || waited > 20*watchdog {
		t.Errorf("awaitAll returned after %v, want about the %v watchdog", waited, watchdog)
	}
	if n := awaitAll(futs[:1], time.Now().Add(watchdog)); n != 0 {
		t.Errorf("awaitAll reported %d unsettled among settled futures", n)
	}
}
