package dfk

import (
	"errors"
	"slices"
	"sync"
	"testing"
)

func TestMapInvokesPerTuple(t *testing.T) {
	d := newDFK(t, nil)
	mul, _ := d.PythonApp("mul", func(args []any, _ map[string]any) (any, error) {
		return args[0].(int) * args[1].(int), nil
	})
	futs := mul.Map([][]any{{2, 3}, {4, 5}, {6, 7}})
	want := []int{6, 20, 42}
	for i, f := range futs {
		v, err := f.Result()
		if err != nil || v != want[i] {
			t.Fatalf("map[%d] = %v, %v", i, v, err)
		}
	}
}

func TestMap1(t *testing.T) {
	d := newDFK(t, nil)
	sq, _ := d.PythonApp("sq", func(args []any, _ map[string]any) (any, error) {
		x := args[0].(int)
		return x * x, nil
	})
	futs := sq.Map1([]any{1, 2, 3, 4})
	total := 0
	for _, f := range futs {
		v, err := f.Result()
		if err != nil {
			t.Fatal(err)
		}
		total += v.(int)
	}
	if total != 30 {
		t.Fatalf("total = %d", total)
	}
}

func TestMapEmpty(t *testing.T) {
	d := newDFK(t, nil)
	a, _ := d.PythonApp("noopm", func([]any, map[string]any) (any, error) { return nil, nil })
	if futs := a.Map(nil); len(futs) != 0 {
		t.Fatalf("futs = %v", futs)
	}
}

func TestMapReduceConstruct(t *testing.T) {
	d := newDFK(t, nil)
	double, _ := d.PythonApp("dbl", func(args []any, _ map[string]any) (any, error) {
		return args[0].(int) * 2, nil
	})
	sum, _ := d.PythonApp("sum", func(args []any, _ map[string]any) (any, error) {
		total := 0
		for _, v := range args[0].([]any) {
			total += v.(int)
		}
		return total, nil
	})
	v, err := MapReduce(double, sum, []any{1, 2, 3, 4, 5}).Result()
	if err != nil || v != 30 {
		t.Fatalf("mapreduce = %v, %v", v, err)
	}
}

func TestMapReducePropagatesMapperFailure(t *testing.T) {
	d := newDFK(t, nil)
	flaky, _ := d.PythonApp("flakym", func(args []any, _ map[string]any) (any, error) {
		if args[0].(int) == 2 {
			return nil, errors.New("bad element")
		}
		return args[0], nil
	})
	id, _ := d.PythonApp("idm", func(args []any, _ map[string]any) (any, error) {
		return args[0], nil
	})
	if _, err := MapReduce(flaky, id, []any{1, 2, 3}).Result(); err == nil {
		t.Fatal("mapper failure swallowed")
	}
}

func TestChain(t *testing.T) {
	d := newDFK(t, nil)
	inc, _ := d.PythonApp("incc", func(args []any, _ map[string]any) (any, error) {
		return args[0].(int) + 1, nil
	})
	v, err := Chain(inc, 10, 5).Result()
	if err != nil || v != 15 {
		t.Fatalf("chain = %v, %v", v, err)
	}
	// Chain of zero applications yields the initial value.
	v, err = Chain(inc, 7, 0).Result()
	if err != nil || v != 7 {
		t.Fatalf("chain0 = %v, %v", v, err)
	}
}

func TestMapWithFutureInputsBuildsDAG(t *testing.T) {
	d := newDFK(t, nil)
	var mu sync.Mutex
	var ran []int // each body's input, in the order the bodies ran
	inc, _ := d.PythonApp("incmap", func(args []any, _ map[string]any) (any, error) {
		mu.Lock()
		ran = append(ran, args[0].(int))
		mu.Unlock()
		return args[0].(int) + 1, nil
	})
	roots := inc.Map1([]any{0, 10, 20})
	// Second map layer consumes the first layer's futures.
	second := inc.Map([][]any{{roots[0]}, {roots[1]}, {roots[2]}})
	want := []int{2, 12, 22}
	for i, f := range second {
		v, err := f.Result()
		if err != nil || v != want[i] {
			t.Fatalf("layer2[%d] = %v, %v", i, v, err)
		}
	}
	// Every second-layer body saw its parent's value, after its parent ran.
	mu.Lock()
	defer mu.Unlock()
	if len(ran) != 6 {
		t.Fatalf("bodies ran on %v, want 6 runs", ran)
	}
	for _, root := range []int{0, 10, 20} {
		p, c := slices.Index(ran, root), slices.Index(ran, root+1)
		if p < 0 || c < 0 || c < p {
			t.Fatalf("bodies ran on %v: child of %d did not run after it on its value", ran, root)
		}
	}
}
