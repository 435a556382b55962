package dfk

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/executor"
	"repro/internal/executor/threadpool"
	"repro/internal/future"
	"repro/internal/serialize"
)

// payloadSpy is a test executor that records the encode-once payload
// attached to every submitted message and fails the first n attempts, so
// retries are observable.
type payloadSpy struct {
	mu       sync.Mutex
	payloads []*serialize.Payload
	failN    int
}

func (s *payloadSpy) Label() string    { return "spy" }
func (s *payloadSpy) Start() error     { return nil }
func (s *payloadSpy) Shutdown() error  { return nil }
func (s *payloadSpy) Outstanding() int { return 0 }

func (s *payloadSpy) Submit(msg serialize.TaskMsg) *future.Future {
	fut := future.NewForTask(msg.ID)
	s.mu.Lock()
	s.payloads = append(s.payloads, msg.Payload())
	fail := len(s.payloads) <= s.failN
	s.mu.Unlock()
	if fail {
		_ = fut.SetError(errors.New("transient"))
	} else {
		_ = fut.SetResult("ok")
	}
	return fut
}

// TestDispatchAttachesEncodeOncePayload: every attempt of a task — the
// first launch and each retry — must carry the same payload object, i.e.
// the arguments were serialized exactly once for the task's lifetime.
func TestDispatchAttachesEncodeOncePayload(t *testing.T) {
	spy := &payloadSpy{failN: 2}
	d, err := New(Config{Executors: []executor.Executor{spy}, Retries: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	app, err := d.PythonApp("spy-app", func([]any, map[string]any) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	fut := app.Call([]int{1, 2, 3}, "x")
	if _, err := fut.Result(); err != nil {
		t.Fatal(err)
	}

	spy.mu.Lock()
	defer spy.mu.Unlock()
	if len(spy.payloads) != 3 {
		t.Fatalf("attempts = %d, want 3", len(spy.payloads))
	}
	if spy.payloads[0] == nil {
		t.Fatal("dispatch submitted a message without an encode-once payload")
	}
	for i := 1; i < len(spy.payloads); i++ {
		if spy.payloads[i] != spy.payloads[0] {
			t.Fatalf("attempt %d re-encoded the arguments (new payload object)", i)
		}
	}
}

// TestRelayReleasesEveryPayload runs tasks through the relay an executor
// without SubmitInto gets, and checks that every payload the executor was
// handed is released by all of its holders: the record, the attempt and the
// relay's executor leg. The last release resets a payload to empty. The relay
// must take its payload reference before settling the attempt, since a
// succeeded attempt is recycled as soon as it settles.
func TestRelayReleasesEveryPayload(t *testing.T) {
	// Task 0 fails both of its attempts; every later task succeeds at once.
	spy := &payloadSpy{failN: 2}
	d, err := New(Config{Executors: []executor.Executor{spy}, Retries: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	app, err := d.PythonApp("relay-app", func([]any, map[string]any) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		v, err := app.Call(i).Result()
		if (i == 0 && err == nil) || (i > 0 && (err != nil || v != "ok")) {
			t.Fatalf("task %d = %v, %v", i, v, err)
		}
	}
	// The spy settles inside Submit, so every relay runs on a lane runner,
	// and Shutdown joins them.
	if err := d.Shutdown(); err != nil {
		t.Fatal(err)
	}
	spy.mu.Lock()
	defer spy.mu.Unlock()
	for i, p := range spy.payloads {
		if p.Len() != 0 {
			t.Fatalf("submission %d: its payload still holds %d bytes after shutdown, a reference was never released", i, p.Len())
		}
	}
}

// TestMemoKeyOverrideHitSkipsEncoding: an explicit-key cache hit is served
// before arguments are serialized, so even args no executor could accept
// return the cached result — the task never needs to execute.
func TestMemoKeyOverrideHitSkipsEncoding(t *testing.T) {
	spy := &payloadSpy{}
	d, err := New(Config{Executors: []executor.Executor{spy}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	app, err := d.PythonApp("memo-app", func([]any, map[string]any) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	// Warm the entry with an ordinary submission.
	if _, err := app.Submit(context.Background(), []any{1}, WithMemoKey("warm")).Result(); err != nil {
		t.Fatal(err)
	}
	// Hit it with an unencodable argument: the cache must answer anyway.
	v, err := app.Submit(context.Background(), []any{make(chan int)}, WithMemoKey("warm")).Result()
	if err != nil {
		t.Fatalf("explicit-key cache hit failed: %v", err)
	}
	if v != "ok" {
		t.Fatalf("cached value = %v, want the stored result", v)
	}
	spy.mu.Lock()
	defer spy.mu.Unlock()
	if len(spy.payloads) != 1 {
		t.Fatalf("executor ran %d tasks, want only the warm-up", len(spy.payloads))
	}
}

// TestUnserializableArgsFailFast: arguments no executor could accept (the
// immutability copy and the wire both need gob) fail the task at launch
// with the serialization error, before any executor sees it.
func TestUnserializableArgsFailFast(t *testing.T) {
	spy := &payloadSpy{}
	d, err := New(Config{Executors: []executor.Executor{spy}, Retries: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	app, err := d.PythonApp("chan-app", func([]any, map[string]any) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	_, err = app.Call(make(chan int)).Result()
	if err == nil {
		t.Fatal("unencodable argument succeeded")
	}
	if !strings.Contains(err.Error(), "serialize") {
		t.Fatalf("error does not name the serialization failure: %v", err)
	}
	spy.mu.Lock()
	defer spy.mu.Unlock()
	if len(spy.payloads) != 0 {
		t.Fatalf("executor saw %d submissions for an unencodable task", len(spy.payloads))
	}
}

// TestGhostAttemptKeepsPayloadForRetry: an attempt that times out while its
// task is still running leaves a ghost in the executor, which holds the
// attempt's future and — until it has decoded them — its share of the payload
// bytes. The retry must still read the original arguments from the shared
// payload however hard other tasks churn the payload pool meanwhile, and the
// ghost's late result must land in a dead attempt and be dropped.
func TestGhostAttemptKeepsPayloadForRetry(t *testing.T) {
	reg := serialize.NewRegistry()
	tp := threadpool.New("tp", 2, reg)
	d, err := New(Config{Registry: reg, Executors: []executor.Executor{tp}, Retries: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()

	entered, release := make(chan struct{}), make(chan struct{})
	freeGhost := sync.OnceFunc(func() { close(release) })
	defer freeGhost() // registered after Shutdown's defer: a failing test must not leave it waiting on the ghost
	var runs atomic.Int64
	slow, err := d.PythonApp("slow", func(args []any, _ map[string]any) (any, error) {
		n := runs.Add(1)
		if n == 1 {
			close(entered)
			<-release // the first execution outlives its attempt's timeout
		}
		return fmt.Sprintf("%v/%v#%d", args[0], args[1], n), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	echo, err := d.PythonApp("echo", func(args []any, _ map[string]any) (any, error) { return args[0], nil })
	if err != nil {
		t.Fatal(err)
	}

	fut := slow.Submit(context.Background(), []any{"original", 42}, WithTimeout(100*time.Millisecond))
	<-entered
	// Churn until the retry has run, and a few thousand tasks at least: every
	// one encodes into, and hands back, a pooled payload on the worker the
	// ghost is not blocking. Short rounds, so the retry (whose own timeout
	// runs while it queues) never waits behind more than one of them.
	for churned := 0; !fut.Done() || churned < 3000; churned += 100 {
		var round [100]*future.Future
		for i := range round {
			round[i] = echo.Call(fmt.Sprint("churn-", churned+i))
		}
		for i, f := range round {
			if v, err := f.Result(); err != nil || v != fmt.Sprint("churn-", churned+i) {
				t.Fatalf("churn task %d = %v, %v", churned+i, v, err)
			}
		}
	}
	if v, err := fut.Result(); err != nil || v != "original/42#2" {
		t.Fatalf("retry = %v, %v; want the second execution echoing the original arguments", v, err)
	}
	d.WaitAll() // the task is done; the ghost is not the DFK's to wait for

	freeGhost()
	waitFor(t, func() bool { return tp.Outstanding() == 0 })
	if v, err := fut.Result(); err != nil || v != "original/42#2" {
		t.Fatalf("after the ghost finished: %v, %v; its late result must be dropped", v, err)
	}
	if n := runs.Load(); n != 2 {
		t.Fatalf("slow ran %d times, want the ghost and one retry", n)
	}
	if v, err := echo.Call("after").Result(); err != nil || v != "after" {
		t.Fatalf("task after the ghost = %v, %v", v, err)
	}
}
