package workload

import (
	"testing"
	"time"

	"repro/internal/serialize"
)

func TestRegisterBenchApps(t *testing.T) {
	reg := serialize.NewRegistry()
	if err := RegisterBenchApps(reg); err != nil {
		t.Fatal(err)
	}
	noop, ok := reg.Lookup("noop")
	if !ok {
		t.Fatal("noop missing")
	}
	if v, err := noop.Fn(nil, nil); err != nil || v != nil {
		t.Fatalf("noop = %v, %v", v, err)
	}
	sleep, _ := reg.Lookup("sleep")
	start := time.Now()
	if _, err := sleep.Fn([]any{20}, nil); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("sleep too short")
	}
	if _, err := sleep.Fn([]any{"oops"}, nil); err == nil {
		t.Fatal("bad arg accepted")
	}
}

func TestFig5WorkflowShape(t *testing.T) {
	stages := Fig5Workflow(time.Millisecond)
	if len(stages) != 4 {
		t.Fatalf("stages = %d", len(stages))
	}
	if stages[0].Tasks != 20 || stages[1].Tasks != 1 || stages[2].Tasks != 20 || stages[3].Tasks != 1 {
		t.Fatalf("widths wrong: %+v", stages)
	}
	if stages[0].Duration != 100*time.Millisecond || stages[1].Duration != 50*time.Millisecond {
		t.Fatalf("durations wrong: %+v", stages)
	}
	// Total work = 20×100 + 50 + 20×100 + 50 = 4100 paper seconds.
	if TaskSeconds(stages) != 4100*time.Millisecond {
		t.Fatalf("task seconds = %v", TaskSeconds(stages))
	}
}

func TestCosmologyBundles(t *testing.T) {
	bundles := CosmologyBundles(130, 64)
	if len(bundles) != 3 {
		t.Fatalf("bundles = %d", len(bundles))
	}
	if len(bundles[0]) != 64 || len(bundles[1]) != 64 || len(bundles[2]) != 2 {
		t.Fatalf("sizes = %d %d %d", len(bundles[0]), len(bundles[1]), len(bundles[2]))
	}
	if bundles[1][0] != 64 {
		t.Fatalf("bundle content = %v", bundles[1][:3])
	}
	if got := CosmologyBundles(5, 0); len(got) != 5 {
		t.Fatalf("b=0 clamp: %d bundles", len(got))
	}
}
