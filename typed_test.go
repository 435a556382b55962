package parsl_test

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	parsl "repro"
	"repro/internal/executor"
	"repro/internal/executor/threadpool"
)

func TestTypedSubmission(t *testing.T) {
	d, err := parsl.NewLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	hello, err := d.PythonApp("typed-hello", func(args []any, _ map[string]any) (any, error) {
		return "Hello " + args[0].(string), nil
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	greet := parsl.Typed1[string, string](hello)
	msg, err := greet(ctx, "World").Result(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if msg != "Hello World" { // msg is a string: no assertion needed
		t.Fatalf("msg = %q", msg)
	}

	// Wrong result type surfaces as an error, not a panic.
	asInt := parsl.Typed1[string, int](hello)
	if _, err := asInt(ctx, "World").Result(ctx); err == nil || !strings.Contains(err.Error(), "want int") {
		t.Fatalf("mistyped result error = %v", err)
	}
}

func TestTypedTwoArgsAndOptions(t *testing.T) {
	d, err := parsl.NewLocal(2)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	add, err := d.PythonApp("typed-add", func(args []any, _ map[string]any) (any, error) {
		return args[0].(int) + args[1].(int), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sum := parsl.Typed2[int, int, int](add)
	v, err := sum(ctx, 2, 40, parsl.WithPriority(3)).Result(ctx)
	if err != nil || v != 42 {
		t.Fatalf("sum = %v, %v", v, err)
	}
}

func TestTypedFutureCtxCancellation(t *testing.T) {
	d, err := parsl.NewLocal(1)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	block := make(chan struct{})
	defer close(block)
	slow, err := d.PythonApp("typed-slow", func([]any, map[string]any) (any, error) {
		<-block
		return "late", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	run := parsl.Typed0[string](slow)
	ctx, cancel := context.WithCancel(context.Background())
	fut := run(context.Background())
	cancel()
	if _, err := fut.Result(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Result under canceled ctx = %v, want context.Canceled", err)
	}
}

func TestSubmitCancellationFacade(t *testing.T) {
	d, err := parsl.NewLocal(1)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	dep := make(chan struct{})
	defer close(dep)
	gate, err := d.PythonApp("facade-gate", func([]any, map[string]any) (any, error) {
		<-dep
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sleepy, err := d.PythonApp("facade-task", func([]any, map[string]any) (any, error) {
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The gate occupies the single worker; the victim waits behind it.
	g := gate.Call()
	ctx, cancel := context.WithCancel(context.Background())
	victim := sleepy.Submit(ctx, nil)
	cancel()
	if _, err := victim.Result(); !errors.Is(err, parsl.ErrSubmissionCanceled) {
		t.Fatalf("victim error = %v, want ErrSubmissionCanceled", err)
	}
	_ = g
}

// TestTypedResultsSurviveCheckpointRestart: a program re-run over its
// checkpoint gets back each result with the Go type its app returned — an
// int still satisfies Typed1[int, int] — and runs no app a second time.
func TestTypedResultsSurviveCheckpointRestart(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "checkpoint")
	values := []any{int64(1<<62 + 1), []byte{1, 2, 3}, map[string]string{"k": "v"}}
	lifetime := func() (execs int64) {
		reg := parsl.NewRegistry()
		d, err := parsl.New(parsl.Config{
			Registry:   reg,
			Executors:  []executor.Executor{threadpool.New("local", 2, reg)},
			Memoize:    true,
			Checkpoint: cp,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Shutdown()
		var n atomic.Int64
		square, err := d.PythonApp("typed-square", func(args []any, _ map[string]any) (any, error) {
			n.Add(1)
			return args[0].(int) * args[0].(int), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		value, err := d.PythonApp("typed-value", func(args []any, _ map[string]any) (any, error) {
			n.Add(1)
			return values[args[0].(int)], nil
		})
		if err != nil {
			t.Fatal(err)
		}
		echo, err := d.BashApp("typed-echo", func(args []any, _ map[string]any) (string, error) {
			n.Add(1)
			return "echo " + args[0].(string), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if v, err := parsl.Typed1[int, int](square)(ctx, 7).Result(ctx); err != nil || v != 49 {
			t.Fatalf("square(7) = %v, %v", v, err)
		}
		if v, err := parsl.Typed1[int, int64](value)(ctx, 0).Result(ctx); err != nil || v != 1<<62+1 {
			t.Fatalf("value(0) = %v, %v", v, err)
		}
		if v, err := parsl.Typed1[int, []byte](value)(ctx, 1).Result(ctx); err != nil || !bytes.Equal(v, []byte{1, 2, 3}) {
			t.Fatalf("value(1) = %v, %v", v, err)
		}
		if v, err := parsl.Typed1[int, map[string]string](value)(ctx, 2).Result(ctx); err != nil || v["k"] != "v" || len(v) != 1 {
			t.Fatalf("value(2) = %v, %v", v, err)
		}
		if v, err := parsl.Typed1[string, parsl.BashResult](echo)(ctx, "hi").Result(ctx); err != nil || v.ExitCode != 0 {
			t.Fatalf("echo = %+v, %v", v, err)
		}
		return n.Load()
	}
	if n := lifetime(); n != 5 {
		t.Fatalf("first run executed %d apps, want 5", n)
	}
	if n := lifetime(); n != 0 {
		t.Fatalf("re-run over the checkpoint executed %d apps, want 0", n)
	}
}
