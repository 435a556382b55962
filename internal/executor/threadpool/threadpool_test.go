package threadpool

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/executor"
	"repro/internal/future"
	"repro/internal/serialize"
)

func newPool(t *testing.T, workers int) *Executor {
	t.Helper()
	reg := serialize.NewRegistry()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(reg.Register("echo", func(args []any, _ map[string]any) (any, error) {
		return args[0], nil
	}))
	must(reg.Register("sleep", func(args []any, _ map[string]any) (any, error) {
		time.Sleep(time.Duration(args[0].(int)) * time.Millisecond)
		return nil, nil
	}))
	must(reg.Register("fail", func([]any, map[string]any) (any, error) {
		return nil, errors.New("app failed")
	}))
	must(reg.Register("mutate", func(args []any, _ map[string]any) (any, error) {
		s := args[0].([]int)
		s[0] = 999
		return s[0], nil
	}))
	e := New("tp", workers, reg)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Shutdown() })
	return e
}

func TestSubmitAndResult(t *testing.T) {
	e := newPool(t, 2)
	fut := e.Submit(serialize.TaskMsg{ID: 1, App: "echo", Args: []any{"hi"}})
	v, err := fut.Result()
	if err != nil || v != "hi" {
		t.Fatalf("result = %v, %v", v, err)
	}
}

func TestParallelismBoundedByWorkers(t *testing.T) {
	e := newPool(t, 4)
	start := time.Now()
	var futs []*future.Future
	for i := 0; i < 8; i++ {
		futs = append(futs, e.Submit(serialize.TaskMsg{ID: int64(i), App: "sleep", Args: []any{50}}))
	}
	if err := future.Wait(futs...); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// 8 tasks × 50 ms on 4 workers = 2 waves ≈ 100 ms; sequential would be 400.
	if elapsed > 300*time.Millisecond {
		t.Fatalf("no parallelism: %v", elapsed)
	}
	if elapsed < 90*time.Millisecond {
		t.Fatalf("parallelism exceeded worker count: %v", elapsed)
	}
}

func TestAppErrorPropagates(t *testing.T) {
	e := newPool(t, 1)
	_, err := e.Submit(serialize.TaskMsg{ID: 1, App: "fail"}).Result()
	var re *executor.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v", err)
	}
}

func TestUnknownApp(t *testing.T) {
	e := newPool(t, 1)
	if _, err := e.Submit(serialize.TaskMsg{ID: 1, App: "nope"}).Result(); err == nil {
		t.Fatal("unknown app succeeded")
	}
}

// TestUnencodableArgFailsOnlyItsTask: a direct submission carries no
// payload, so the worker encodes its arguments to take its copy; a channel
// does not encode, and that fails the task's future with the encode error
// while the worker goes on to run the next task.
func TestUnencodableArgFailsOnlyItsTask(t *testing.T) {
	e := newPool(t, 1)
	bad := e.Submit(serialize.TaskMsg{ID: 1, App: "echo", Args: []any{make(chan int)}})
	next := e.Submit(serialize.TaskMsg{ID: 2, App: "echo", Args: []any{"next"}})
	_, err := bad.Result()
	var re *executor.RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "serialize: encode arg 0") {
		t.Fatalf("channel argument: err = %v, want the encode error", err)
	}
	if v, err := next.Result(); err != nil || v != "next" {
		t.Fatalf("task after the unencodable one = %v, %v", v, err)
	}
}

func TestArgumentIsolation(t *testing.T) {
	e := newPool(t, 1)
	orig := []int{1, 2, 3}
	v, err := e.Submit(serialize.TaskMsg{ID: 1, App: "mutate", Args: []any{orig}}).Result()
	if err != nil {
		t.Fatal(err)
	}
	if v != 999 {
		t.Fatalf("v = %v", v)
	}
	if orig[0] != 1 {
		t.Fatal("app mutated the caller's slice through the executor boundary")
	}
}

// TestArgumentIsolationFromPayload is TestArgumentIsolation on the
// encode-once path the DFK dispatch pipeline uses: the worker's defensive
// copy is decoded from the attached payload bytes (no fresh encode), and
// mutation by the app must still not leak into caller state — even when the
// same payload serves repeated submissions, as it does for retries.
func TestArgumentIsolationFromPayload(t *testing.T) {
	e := newPool(t, 1)
	orig := []int{1, 2, 3}
	kw := map[string]any{"tag": []string{"keep"}}
	p, err := serialize.EncodeArgs([]any{orig}, kw)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		msg := serialize.TaskMsg{ID: int64(i + 1), App: "mutate", Args: []any{orig}, Kwargs: kw}
		msg.AttachPayload(p)
		v, err := e.Submit(msg).Result()
		if err != nil {
			t.Fatal(err)
		}
		if v != 999 {
			t.Fatalf("v = %v", v)
		}
		if orig[0] != 1 {
			t.Fatal("app mutated the caller's slice through the payload deep copy")
		}
		if kw["tag"].([]string)[0] != "keep" {
			t.Fatal("app mutated the caller's kwargs through the payload deep copy")
		}
	}
}

func TestOutstandingCount(t *testing.T) {
	e := newPool(t, 1)
	fut := e.Submit(serialize.TaskMsg{ID: 1, App: "sleep", Args: []any{50}})
	if e.Outstanding() < 1 {
		t.Fatal("outstanding not counted")
	}
	_, _ = fut.Result()
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) && e.Outstanding() != 0 {
		time.Sleep(time.Millisecond)
	}
	if e.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after completion", e.Outstanding())
	}
}

func TestSubmitBeforeStart(t *testing.T) {
	e := New("tp", 1, serialize.NewRegistry())
	if _, err := e.Submit(serialize.TaskMsg{ID: 1, App: "x"}).Result(); err == nil {
		t.Fatal("submit before start succeeded")
	}
}

func TestSubmitAfterShutdown(t *testing.T) {
	e := newPool(t, 1)
	_ = e.Shutdown()
	_, err := e.Submit(serialize.TaskMsg{ID: 1, App: "echo", Args: []any{1}}).Result()
	if !errors.Is(err, executor.ErrShutdown) {
		t.Fatalf("err = %v", err)
	}
}

func TestShutdownDrainsQueue(t *testing.T) {
	e := newPool(t, 2)
	var futs []*future.Future
	for i := 0; i < 20; i++ {
		futs = append(futs, e.Submit(serialize.TaskMsg{ID: int64(i), App: "echo", Args: []any{i}}))
	}
	if err := e.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for i, f := range futs {
		v, err := f.Result()
		if err != nil || v != i {
			t.Fatalf("task %d after shutdown: %v, %v", i, v, err)
		}
	}
}

func TestDoubleStartAndShutdown(t *testing.T) {
	e := newPool(t, 1)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := e.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

func TestMinimumOneWorker(t *testing.T) {
	e := New("tp", 0, serialize.NewRegistry())
	if e.Workers() != 1 {
		t.Fatalf("workers = %d", e.Workers())
	}
}

func TestHighConcurrencySubmission(t *testing.T) {
	e := newPool(t, 8)
	const n = 500
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := e.Submit(serialize.TaskMsg{ID: int64(i), App: "echo", Args: []any{i}}).Result()
			if err != nil || v != i {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestSubmitBatch(t *testing.T) {
	e := newPool(t, 4)
	msgs := make([]serialize.TaskMsg, 64)
	for i := range msgs {
		msgs[i] = serialize.TaskMsg{ID: int64(i), App: "echo", Args: []any{i}}
	}
	futs := e.SubmitBatch(msgs)
	if len(futs) != len(msgs) {
		t.Fatalf("futs = %d, want %d", len(futs), len(msgs))
	}
	for i, f := range futs {
		v, err := f.Result()
		if err != nil || v != i {
			t.Fatalf("task %d: %v, %v", i, v, err)
		}
	}
	if e.Outstanding() != 0 {
		t.Fatalf("outstanding = %d", e.Outstanding())
	}
}

// TestCancelDropsQueuedWork blocks the single worker, queues a second task,
// cancels it, and verifies it never runs: the future settles with
// ErrCanceled and the worker skips the claimed-but-canceled item.
func TestCancelDropsQueuedWork(t *testing.T) {
	reg := serialize.NewRegistry()
	release := make(chan struct{})
	ran := make(chan int64, 16)
	if err := reg.Register("block", func([]any, map[string]any) (any, error) {
		<-release
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("mark", func(args []any, _ map[string]any) (any, error) {
		ran <- int64(args[0].(int))
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	e := New("tp", 1, reg)
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown()

	blocker := e.Submit(serialize.TaskMsg{ID: 1, App: "block"})
	victim := e.Submit(serialize.TaskMsg{ID: 2, App: "mark", Args: []any{2}})
	survivor := e.Submit(serialize.TaskMsg{ID: 3, App: "mark", Args: []any{3}})

	if !e.Cancel(2) {
		t.Fatal("Cancel(2) = false for a queued task")
	}
	if e.Cancel(99) {
		t.Fatal("Cancel of an unknown id reported success")
	}
	if _, err := victim.Result(); !errors.Is(err, future.ErrCanceled) {
		t.Fatalf("victim error = %v, want ErrCanceled", err)
	}

	close(release)
	if _, err := blocker.Result(); err != nil {
		t.Fatal(err)
	}
	if _, err := survivor.Result(); err != nil {
		t.Fatal(err)
	}
	// Canceling a completed task is a no-op.
	if e.Cancel(3) {
		t.Fatal("Cancel succeeded on a completed task")
	}
	close(ran)
	for id := range ran {
		if id == 2 {
			t.Fatal("canceled task ran")
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for e.Outstanding() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("outstanding = %d after drain, want 0", e.Outstanding())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSubmitBatchAfterShutdown(t *testing.T) {
	e := newPool(t, 1)
	_ = e.Shutdown()
	futs := e.SubmitBatch([]serialize.TaskMsg{{ID: 1, App: "echo"}, {ID: 2, App: "echo"}})
	for _, f := range futs {
		if _, err := f.Result(); !errors.Is(err, executor.ErrShutdown) {
			t.Fatalf("err = %v", err)
		}
	}
}
