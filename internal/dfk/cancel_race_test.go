package dfk

import (
	"context"
	"errors"
	"testing"
)

// echoDFK is the shared threadpool fixture with an echo app registered.
func echoDFK(t *testing.T, mutate func(*Config)) (*DFK, *App) {
	t.Helper()
	d := newDFK(t, mutate)
	echo, err := d.PythonApp("echo", func(args []any, _ map[string]any) (any, error) { return args[0], nil })
	if err != nil {
		t.Fatal(err)
	}
	return d, echo
}

// checkCancelOutcome accepts the only two outcomes a canceled echo may have:
// its own value, or an error wrapping ErrCanceled.
func checkCancelOutcome(t *testing.T, i int, v any, err error) {
	t.Helper()
	if err != nil {
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("task %d: error %v does not wrap ErrCanceled", i, err)
		}
		return
	}
	if v != i {
		t.Fatalf("task %d: echoed %v", i, v)
	}
}

// TestCancelDuringSubmit cancels the submission context concurrently with
// Submit itself. The watcher can fire the moment the record is published —
// while submit is still wiring it — so submit must hold the record until it
// returns: without the hold the canceled record was recycled under launch,
// which enqueued a ghost attempt that settled a nil Future on a worker.
func TestCancelDuringSubmit(t *testing.T) {
	d, echo := echoDFK(t, nil)
	const n = 20000
	for i := 0; i < n; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go cancel()
		f := echo.Submit(ctx, []any{i})
		v, err := f.Result()
		checkCancelOutcome(t, i, v, err)
	}
	d.WaitAll()
	if out := d.Outstanding(); out != 0 {
		t.Fatalf("Outstanding = %d after drain, want 0", out)
	}
}

// TestCancelWhileQueued cancels right after Submit returns, so the attempt
// concludes while its entry travels the routing queue and the lane. The
// executor-leg payload reference must already be held by then: retaining it
// in the lane runner raced the attempt's own release and over-released (or
// decoded) a recycled payload.
func TestCancelWhileQueued(t *testing.T) {
	d, echo := echoDFK(t, nil)
	const n = 50000
	for i := 0; i < n; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		f := echo.Submit(ctx, []any{i})
		cancel()
		v, err := f.Result()
		checkCancelOutcome(t, i, v, err)
	}
	d.WaitAll()
	if out := d.Outstanding(); out != 0 {
		t.Fatalf("Outstanding = %d after drain, want 0", out)
	}
}

// TestCancelDuringSubmitClosesWAL runs the same race with the durable log on.
// A cancellation that concludes the task before its first attempt is armed
// never sees the WAL key, so launch itself must close the submission it just
// logged: after the drain no logged task may still be live, or a restart
// would re-run work whose future already failed.
func TestCancelDuringSubmitClosesWAL(t *testing.T) {
	d, echo := echoDFK(t, func(c *Config) { c.WAL, c.WALDir = true, t.TempDir() })
	for i := 0; i < 5000; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		go cancel()
		v, err := echo.Submit(ctx, []any{i}).Result()
		checkCancelOutcome(t, i, v, err)
	}
	d.WaitAll()
	if live := d.WAL().LiveCount(); live != 0 {
		t.Fatalf("%d logged tasks still live after every future settled", live)
	}
}
