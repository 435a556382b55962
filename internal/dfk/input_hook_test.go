package dfk

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/executor"
	"repro/internal/executor/threadpool"
	"repro/internal/future"
	"repro/internal/serialize"
)

// TestLateInputAfterDependencyFailure runs, through the futures, the sequence
// in which a task's record outlives the task: a child of two parents whose
// first parent has already failed fails inside Submit, and its record retires,
// while the second parent is still running. Tasks submitted next, each waiting
// on a third parent, draw records from the pool — the child's among them, were
// it recycled with its second input outstanding. Then the second parent
// resolves. Its edge must find the child's record and launch nothing: not the
// child, whose body never runs, and not a task that took the record over,
// which would run before its own input resolved and see nil for it. Once the
// third parent resolves, each waiting task returns its input plus one.
func TestLateInputAfterDependencyFailure(t *testing.T) {
	const rounds, waiters = 50, 8
	reg := serialize.NewRegistry()
	d, err := New(Config{Seed: 1, Registry: reg, Executors: []executor.Executor{threadpool.New("tp", 2, reg)}})
	if err != nil {
		t.Fatal(err)
	}
	gates := make([][2]chan struct{}, rounds)
	opened := make([][2]bool, rounds)
	for r := range gates {
		gates[r] = [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	}
	open := func(r, k int) {
		if !opened[r][k] {
			opened[r][k] = true
			close(gates[r][k])
		}
	}
	stuck := false // Shutdown waits for every task, so a stuck one would hang it
	t.Cleanup(func() {
		// A failed round must not leave its parents blocked under Shutdown.
		for r := range gates {
			open(r, 0)
			open(r, 1)
		}
		if !stuck {
			_ = d.Shutdown()
		}
	})
	fail, err := d.PythonApp("late-fail", func([]any, map[string]any) (any, error) {
		return nil, errors.New("first parent fails")
	})
	if err != nil {
		t.Fatal(err)
	}
	block, err := d.PythonApp("late-block", func(args []any, _ map[string]any) (any, error) {
		<-gates[args[0].(int)][args[1].(int)]
		return args[2], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var childRuns atomic.Int32
	child, err := d.PythonApp("late-child", func([]any, map[string]any) (any, error) {
		childRuns.Add(1)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	inc, err := d.PythonApp("late-inc", func(args []any, _ map[string]any) (any, error) {
		v, ok := args[0].(int)
		if !ok {
			return nil, fmt.Errorf("ran before its input resolved: got %v", args[0])
		}
		return v + 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	result := func(f *future.Future, what string) (any, error) {
		v, err := f.ResultTimeout(10 * time.Second)
		if errors.Is(err, context.DeadlineExceeded) {
			stuck = true
			t.Fatalf("%s never settled", what)
		}
		return v, err
	}
	for r := 0; r < rounds; r++ {
		first := fail.Call()
		if _, err := result(first, "the failing parent"); err == nil {
			t.Fatal("the failing parent succeeded")
		}
		second := block.Call(r, 0, 10*r)
		third := block.Call(r, 1, 10*r+1)
		c := child.Call(first, second)
		if !c.Done() {
			t.Fatalf("round %d: a child of a failed parent is still pending after Submit", r)
		}
		var dep *DependencyError
		if err := c.Err(); !errors.As(err, &dep) || dep.DepID != first.TaskID {
			t.Fatalf("round %d: child error %v, want a DependencyError naming task %d", r, err, first.TaskID)
		}
		ws := make([]*future.Future, waiters)
		for i := range ws {
			ws[i] = inc.Call(third)
		}
		open(r, 0)
		if v, err := result(second, "the second parent"); err != nil || v != 10*r {
			t.Fatalf("round %d: second parent = %v, %v", r, v, err)
		}
		for i, w := range ws {
			if w.Done() {
				v, err := w.Result()
				t.Fatalf("round %d: waiter %d settled before its input resolved: %v, %v", r, i, v, err)
			}
		}
		open(r, 1)
		for i, w := range ws {
			if v, err := result(w, "a waiting task"); err != nil || v != 10*r+2 {
				t.Fatalf("round %d: waiter %d = %v, %v; want %d", r, i, v, err, 10*r+2)
			}
		}
	}
	d.WaitAll()
	if n := childRuns.Load(); n != 0 {
		t.Fatalf("a child of a failed parent ran %d times", n)
	}
	if live := d.Graph().LiveNodes(); live != 0 {
		t.Fatalf("LiveNodes = %d after drain, want 0", live)
	}
}
