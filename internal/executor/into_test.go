package executor_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/executor"
	"repro/internal/executor/htex"
	"repro/internal/executor/threadpool"
	"repro/internal/future"
	"repro/internal/provider"
	"repro/internal/serialize"
	"repro/internal/simnet"
)

// intoExecutor is what the DFK's direct arm drives.
type intoExecutor interface {
	executor.Executor
	executor.IntoSubmitter
	executor.Canceler
}

// intoImpls builds each IntoSubmitter with exactly one worker, unstarted;
// ready reports when a started one can run a task.
var intoImpls = []struct {
	name string
	make func(reg *serialize.Registry) (ex intoExecutor, ready func() bool)
}{
	{"threadpool", func(reg *serialize.Registry) (intoExecutor, func() bool) {
		return threadpool.New("tp", 1, reg), func() bool { return true }
	}},
	{"htex", func(reg *serialize.Registry) (intoExecutor, func() bool) {
		e := htex.New(htex.Config{
			Transport:  simnet.NewNetwork(0),
			Registry:   reg,
			Provider:   provider.NewLocal(provider.Config{NodesPerBlock: 1}),
			InitBlocks: 1,
			Manager:    htex.ManagerConfig{Workers: 1, Prefetch: 1},
		})
		return e, func() bool { return e.Shard(0).ManagerCount() == 1 }
	}},
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timeout: %s", what)
		}
	}
}

// handOver builds a one-task submission the way the DFK's lane does: an
// encode-once payload holding the test's own reference plus the one
// SubmitInto takes over, and a pending future the test owns.
func handOver(t *testing.T, id int64, app string) (serialize.TaskMsg, *serialize.Payload, *future.Future) {
	t.Helper()
	m := serialize.TaskMsg{ID: id, App: app, Args: []any{fmt.Sprint("arg-", id)}}
	p, err := serialize.EncodeArgs(m.Args, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.AttachPayload(p.Retain())
	return m, p, new(future.Future)
}

// releasePanic drops one reference and returns what that panicked with.
func releasePanic(p *serialize.Payload) (r any) {
	defer func() { r = recover() }()
	p.Release()
	return nil
}

// checkOwnReferenceLeft asserts that the executor gave back every payload
// reference it was handed or took: the test's own is the last one, so
// releasing it succeeds and one more is the over-release the payload polices.
func checkOwnReferenceLeft(t *testing.T, p *serialize.Payload) {
	t.Helper()
	if r := releasePanic(p); r != nil {
		t.Fatalf("releasing the test's own reference panicked (%v): the executor released more than it was handed", r)
	}
	if r := releasePanic(p); r == nil || !strings.Contains(fmt.Sprint(r), "over-released") {
		t.Fatalf("one release past the test's own: panic %v, want over-released — the executor still holds a reference", r)
	}
}

// TestSubmitIntoContract runs executor.IntoSubmitter's ownership rules against
// every implementer: whoever settles the caller's future, and whether or not
// the task ever runs, the executor ends up holding no payload reference and a
// future the caller settled first keeps the caller's outcome.
func TestSubmitIntoContract(t *testing.T) {
	for _, impl := range intoImpls {
		// setup registers a gate app (signals entered, blocks until release is
		// closed) and an echo app, and builds the executor.
		setup := func(t *testing.T, start bool) (ex intoExecutor, entered, release chan struct{}) {
			t.Helper()
			entered, release = make(chan struct{}, 1), make(chan struct{})
			reg := serialize.NewRegistry()
			for name, fn := range map[string]serialize.Fn{
				"gate": func(args []any, _ map[string]any) (any, error) {
					entered <- struct{}{}
					<-release
					return args[0], nil
				},
				"echo": func(args []any, _ map[string]any) (any, error) { return args[0], nil },
			} {
				if err := reg.Register(name, fn); err != nil {
					t.Fatal(err)
				}
			}
			ex, ready := impl.make(reg)
			t.Cleanup(func() { _ = ex.Shutdown() })
			if start {
				if err := ex.Start(); err != nil {
					t.Fatal(err)
				}
				waitFor(t, "executor ready", ready)
			}
			return ex, entered, release
		}
		into := func(ex intoExecutor, m serialize.TaskMsg, f *future.Future) {
			ex.SubmitInto([]serialize.TaskMsg{m}, []*future.Future{f})
		}

		t.Run(impl.name+"/caller settles first", func(t *testing.T) {
			ex, entered, release := setup(t, true)
			m, p, fut := handOver(t, 1, "gate")
			into(ex, m, fut)
			<-entered
			gaveUp := errors.New("caller gave up")
			if err := fut.SetError(gaveUp); err != nil {
				t.Fatal(err)
			}
			close(release)
			// The late result is written into a settled future and refused.
			waitFor(t, "late result absorbed", func() bool { return ex.Outstanding() == 0 })
			if _, err := fut.Result(); err != gaveUp {
				t.Fatalf("future error = %v, want the caller's", err)
			}
			checkOwnReferenceLeft(t, p)
		})

		t.Run(impl.name+"/not started", func(t *testing.T) {
			ex, _, _ := setup(t, false)
			m, p, fut := handOver(t, 1, "echo")
			into(ex, m, fut)
			if err := fut.Err(); !fut.Done() || err == nil || !strings.Contains(err.Error(), "before Start") {
				t.Fatalf("future = %v, want a Submit-before-Start failure", fut)
			}
			checkOwnReferenceLeft(t, p)
		})

		t.Run(impl.name+"/shut down", func(t *testing.T) {
			ex, _, _ := setup(t, true)
			if err := ex.Shutdown(); err != nil {
				t.Fatal(err)
			}
			m, p, fut := handOver(t, 1, "echo")
			into(ex, m, fut)
			if err := fut.Err(); !errors.Is(err, executor.ErrShutdown) {
				t.Fatalf("future error = %v, want ErrShutdown", err)
			}
			checkOwnReferenceLeft(t, p)
		})

		t.Run(impl.name+"/claimed by Cancel", func(t *testing.T) {
			ex, entered, release := setup(t, true)
			bm, bp, blocker := handOver(t, 1, "gate")
			into(ex, bm, blocker)
			<-entered // the only worker is busy: the victim waits in a queue
			vm, vp, victim := handOver(t, 2, "echo")
			into(ex, vm, victim)
			if !ex.Cancel(2) {
				t.Fatal("Cancel(2) = false for a queued task")
			}
			if err := victim.Err(); !errors.Is(err, future.ErrCanceled) {
				t.Fatalf("victim error = %v, want ErrCanceled", err)
			}
			close(release)
			// A fence behind the victim: once it ran, the dead queue item (and
			// the reference riding it) has been dropped.
			if v, err := ex.Submit(serialize.TaskMsg{ID: 3, App: "echo", Args: []any{"fence"}}).Result(); err != nil || v != "fence" {
				t.Fatalf("fence = %v, %v", v, err)
			}
			if v, err := blocker.Result(); err != nil || v != "arg-1" {
				t.Fatalf("blocker = %v, %v", v, err)
			}
			waitFor(t, "executor drained", func() bool { return ex.Outstanding() == 0 })
			checkOwnReferenceLeft(t, vp)
			checkOwnReferenceLeft(t, bp)
		})
	}
}
