package baselines

import (
	"errors"
	"testing"
	"time"

	"repro/internal/future"
	"repro/internal/serialize"
)

func testRegistry(t *testing.T) *serialize.Registry {
	t.Helper()
	reg := serialize.NewRegistry()
	if err := reg.Register("noop", func([]any, map[string]any) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("echo", func(args []any, _ map[string]any) (any, error) { return args[0], nil }); err != nil {
		t.Fatal(err)
	}
	return reg
}

func TestIPPRoundTrip(t *testing.T) {
	e := NewIPP(2, testRegistry(t))
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown()
	start := time.Now()
	v, err := e.Submit(serialize.TaskMsg{ID: 1, App: "echo", Args: []any{"hub"}}).Result()
	if err != nil || v != "hub" {
		t.Fatalf("result = %v, %v", v, err)
	}
	if rtt := time.Since(start); rtt < IPPRoundTrip {
		t.Fatalf("rtt %v below modeled floor %v", rtt, IPPRoundTrip)
	}
}

func TestDaskFasterSchedulerSlowerClient(t *testing.T) {
	reg := testRegistry(t)
	dask := NewDask(4, reg)
	if err := dask.Start(); err != nil {
		t.Fatal(err)
	}
	defer dask.Shutdown()
	// Sequential latency ≈ RoundTrip (Fig. 3: Dask 16.19 ms > IPP 11.72).
	start := time.Now()
	if _, err := dask.Submit(serialize.TaskMsg{ID: 1, App: "noop"}).Result(); err != nil {
		t.Fatal(err)
	}
	if rtt := time.Since(start); rtt < DaskRoundTrip {
		t.Fatalf("dask rtt %v below floor", rtt)
	}
}

func TestCentralThroughputBoundedByScheduler(t *testing.T) {
	reg := testRegistry(t)
	// A central scheduler with 5 ms service: 100 concurrent no-ops must
	// take ≥ 500 ms regardless of worker count — the saturation knee.
	e := NewCentral(CentralConfig{
		Name: "central-test", SchedulerService: 5 * time.Millisecond,
		Workers: 64, Registry: reg,
	})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown()
	start := time.Now()
	var futs []*future.Future
	for i := 0; i < 100; i++ {
		futs = append(futs, e.Submit(serialize.TaskMsg{ID: int64(i), App: "noop"}))
	}
	if err := future.Wait(futs...); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 500*time.Millisecond {
		t.Fatalf("central bottleneck not modeled: %v", elapsed)
	}
}

func TestIPPWorkerLimit(t *testing.T) {
	reg := testRegistry(t)
	e := NewCentral(CentralConfig{
		Name: "ipp", RoundTrip: 0, SchedulerService: 0,
		MaxWorkers: 4, Workers: 4, Registry: reg,
	})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown()
	if err := e.AddWorkers(1); !errors.Is(err, ErrWorkerLimit) {
		t.Fatalf("err = %v", err)
	}
	if e.Workers() != 4 {
		t.Fatalf("workers = %d", e.Workers())
	}
}

func TestDaskConnectionCapAt8192(t *testing.T) {
	reg := testRegistry(t)
	e := NewCentral(CentralConfig{
		Name: "dask", MaxWorkers: DaskMaxWorkers, Workers: 1, Registry: reg,
	})
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Shutdown()
	if err := e.AddWorkers(DaskMaxWorkers - 1); err != nil {
		t.Fatal(err)
	}
	if err := e.AddWorkers(1); !errors.Is(err, ErrWorkerLimit) {
		t.Fatalf("err = %v", err)
	}
}

func TestOrderingMatchesFig3(t *testing.T) {
	// Single-task latency ordering from the paper: IPP < Dask, and both
	// well above a zero-overhead floor.
	reg := testRegistry(t)
	measure := func(e interface {
		Start() error
		Submit(serialize.TaskMsg) *future.Future
		Shutdown() error
	}) time.Duration {
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		defer e.Shutdown()
		// Warm up once, then measure 5 sequential tasks.
		_, _ = e.Submit(serialize.TaskMsg{ID: 0, App: "noop"}).Result()
		start := time.Now()
		for i := 1; i <= 5; i++ {
			if _, err := e.Submit(serialize.TaskMsg{ID: int64(i), App: "noop"}).Result(); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start) / 5
	}
	ipp := measure(NewIPP(1, reg))
	dask := measure(NewDask(1, reg))
	if !(ipp < dask) {
		t.Fatalf("latency ordering violated: ipp=%v dask=%v", ipp, dask)
	}
}

func TestSubmitBeforeStart(t *testing.T) {
	reg := testRegistry(t)
	if _, err := NewIPP(1, reg).Submit(serialize.TaskMsg{ID: 1, App: "noop"}).Result(); err == nil {
		t.Fatal("submit before start succeeded")
	}
}

func TestShutdownIdempotent(t *testing.T) {
	reg := testRegistry(t)
	e := NewIPP(1, reg)
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
