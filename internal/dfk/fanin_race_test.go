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

// TestFanInCountdownRace races the dependency countdown. Each round submits
// 16 parents to a two-worker pool, holds them at a gate, and opens the gate
// while it wires eight children that each take all 16: the parents settle on
// both workers while the children's countdowns are being set and their
// callbacks registered, so some edges fire inside AddDoneCallback and the rest
// on the two workers at once, each worker counting down all eight children in
// turn. Every other round one parent fails, and one child per round has its
// context canceled concurrently with its Submit. The oracle, per child:
//   - a round with a failed parent: the body never runs, and the child fails
//     with a DependencyError (or ErrCanceled, for the canceled child);
//   - otherwise the plain children run exactly once and see all 16 values;
//     the canceled child either does the same or fails with ErrCanceled,
//     having run at most once (a canceled attempt may already have started).
//
// Every future settles, and the graph drains to no live node.
func TestFanInCountdownRace(t *testing.T) {
	const rounds, parents, children = 300, 16, 8
	reg := serialize.NewRegistry()
	d, err := New(Config{Seed: 1, Registry: reg, Executors: []executor.Executor{threadpool.New("tp", 2, reg)}})
	if err != nil {
		t.Fatal(err)
	}
	stuck := false // Shutdown waits for every task, so a stuck child would hang it
	t.Cleanup(func() {
		if !stuck {
			_ = d.Shutdown()
		}
	})
	gates := make([]chan struct{}, rounds) // round r's parents wait on gates[r]
	for r := range gates {
		gates[r] = make(chan struct{})
	}
	parent, err := d.PythonApp("fanin-parent", func(args []any, _ map[string]any) (any, error) {
		<-gates[args[0].(int)]
		if args[2].(bool) {
			return nil, fmt.Errorf("parent %d fails", args[1])
		}
		return args[1], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var runs [rounds * children]atomic.Int32
	child, err := d.PythonApp("fanin-child", func(args []any, _ map[string]any) (any, error) {
		runs[args[0].(int)].Add(1)
		sum := 0
		for _, v := range args[1:] {
			sum += v.(int)
		}
		return sum, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	const want = parents * (parents - 1) / 2 // 0 + 1 + … + 15
	for r := 0; r < rounds; r++ {
		failing := r%2 == 1
		in := make([]any, parents)
		for p := range in {
			in[p] = parent.Call(r, p, failing && p == r%parents)
		}
		go close(gates[r])
		futs := make([]*future.Future, children)
		for c := range futs {
			ctx := context.Background()
			if c == children-1 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithCancel(ctx)
				go cancel()
			}
			futs[c] = child.Submit(ctx, append([]any{r*children + c}, in...))
		}
		for c, f := range futs {
			v, err := f.ResultTimeout(10 * time.Second)
			if errors.Is(err, context.DeadlineExceeded) {
				stuck = true
				t.Fatalf("round %d child %d: future never settled", r, c)
			}
			canceled := c == children-1
			n := runs[r*children+c].Load()
			var dep *DependencyError
			switch {
			case failing && (n != 0 || err == nil):
				t.Fatalf("round %d child %d: a parent failed, yet it ran %d times and returned %v, %v", r, c, n, v, err)
			case failing && !errors.As(err, &dep) && !(canceled && errors.Is(err, ErrCanceled)):
				t.Fatalf("round %d child %d: a parent failed, child error %v", r, c, err)
			case failing:
			case err == nil && (n != 1 || v != want):
				t.Fatalf("round %d child %d: ran %d times, returned %v; want once, %d", r, c, n, v, want)
			case err != nil && (!canceled || !errors.Is(err, ErrCanceled) || n > 1):
				t.Fatalf("round %d child %d: ran %d times, error %v", r, c, n, err)
			}
		}
	}
	d.WaitAll()
	// A canceled attempt that had started may have finished its body since.
	for i := range runs {
		if n, failing := runs[i].Load(), i/children%2 == 1; n > 1 || failing && n != 0 {
			t.Fatalf("round %d child %d ran %d times", i/children, i%children, n)
		}
	}
	if live := d.Graph().LiveNodes(); live != 0 {
		t.Fatalf("LiveNodes = %d after drain, want 0", live)
	}
}
