package provider

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
)

// countingPayload returns a Payload that tracks started/stopped node counts.
func countingPayload(started, stopped *atomic.Int32) Payload {
	return func(n Node) (func(), error) {
		started.Add(1)
		return func() { stopped.Add(1) }, nil
	}
}

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestLocalProviderLifecycle(t *testing.T) {
	var started, stopped atomic.Int32
	p := NewLocal(Config{NodesPerBlock: 3})
	if p.Name() != "local" || p.NodesPerBlock() != 3 {
		t.Fatal("identity")
	}
	id, err := p.SubmitBlock(countingPayload(&started, &stopped))
	if err != nil {
		t.Fatal(err)
	}
	if started.Load() != 3 {
		t.Fatalf("started = %d", started.Load())
	}
	st, err := p.Status(id)
	if err != nil || st != StatusRunning {
		t.Fatalf("status = %v, %v", st, err)
	}
	if err := p.CancelBlock(id); err != nil {
		t.Fatal(err)
	}
	if stopped.Load() != 3 {
		t.Fatalf("stopped = %d", stopped.Load())
	}
	st, _ = p.Status(id)
	if st != StatusCancelled {
		t.Fatalf("status after cancel = %v", st)
	}
}

func TestLocalProviderPayloadError(t *testing.T) {
	p := NewLocal(Config{NodesPerBlock: 2})
	calls := 0
	_, err := p.SubmitBlock(func(n Node) (func(), error) {
		calls++
		return nil, errors.New("no dice")
	})
	if err == nil {
		t.Fatal("payload error swallowed")
	}
	if calls != 1 {
		t.Fatalf("kept launching after failure: %d calls", calls)
	}
}

func TestLocalProviderUnknownBlock(t *testing.T) {
	p := NewLocal(Config{})
	if _, err := p.Status("ghost"); !errors.Is(err, ErrNoBlock) {
		t.Fatalf("err = %v", err)
	}
	if err := p.CancelBlock("ghost"); !errors.Is(err, ErrNoBlock) {
		t.Fatalf("err = %v", err)
	}
}

func TestConfigNormalization(t *testing.T) {
	p := NewLocal(Config{})
	if p.NodesPerBlock() != 1 {
		t.Fatal("NodesPerBlock default")
	}
}

func newSlurmOnCluster(t *testing.T, nodes int, cfg Config) (*Batch, *cluster.Cluster) {
	t.Helper()
	cl, err := cluster.New(cluster.Config{Name: "sim", Nodes: nodes, CoresPerNode: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return NewSlurm(cl, cfg), cl
}

func TestSlurmProviderRunsPayloadPerNode(t *testing.T) {
	var started, stopped atomic.Int32
	p, _ := newSlurmOnCluster(t, 4, Config{NodesPerBlock: 2})
	id, err := p.SubmitBlock(countingPayload(&started, &stopped))
	if err != nil {
		t.Fatal(err)
	}
	waitCond(t, "payload start", func() bool { return started.Load() == 2 })
	st, err := p.Status(id)
	if err != nil || st != StatusRunning {
		t.Fatalf("status = %v, %v", st, err)
	}
	if err := p.CancelBlock(id); err != nil {
		t.Fatal(err)
	}
	waitCond(t, "payload stop", func() bool { return stopped.Load() == 2 })
	waitCond(t, "cancelled status", func() bool {
		st, _ := p.Status(id)
		return st == StatusCancelled
	})
}

func TestSlurmPartitionValidation(t *testing.T) {
	cl, err := cluster.New(cluster.Midway(4))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	p := NewSlurm(cl, Config{NodesPerBlock: 1, Partition: "gpu2"})
	if _, err := p.SubmitBlock(func(Node) (func(), error) { return func() {}, nil }); err == nil {
		t.Fatal("bad partition accepted")
	}
	good := NewSlurm(cl, Config{NodesPerBlock: 1, Partition: "broadwl"})
	if _, err := good.SubmitBlock(func(Node) (func(), error) { return func() {}, nil }); err != nil {
		t.Fatal(err)
	}
}

func TestBatchBlockQueuesWhenFull(t *testing.T) {
	var started, stopped atomic.Int32
	p, _ := newSlurmOnCluster(t, 2, Config{NodesPerBlock: 2})
	id1, err := p.SubmitBlock(countingPayload(&started, &stopped))
	if err != nil {
		t.Fatal(err)
	}
	waitCond(t, "block1 running", func() bool {
		st, _ := p.Status(id1)
		return st == StatusRunning
	})
	id2, err := p.SubmitBlock(countingPayload(&started, &stopped))
	if err != nil {
		t.Fatal(err)
	}
	st, _ := p.Status(id2)
	if st != StatusPending {
		t.Fatalf("second block status = %v, want pending", st)
	}
	_ = p.CancelBlock(id1)
	waitCond(t, "block2 running", func() bool {
		st, _ := p.Status(id2)
		return st == StatusRunning
	})
}

func TestBatchWalltimeCompletesBlock(t *testing.T) {
	var started, stopped atomic.Int32
	p, _ := newSlurmOnCluster(t, 1, Config{NodesPerBlock: 1, Walltime: 30 * time.Millisecond})
	id, err := p.SubmitBlock(countingPayload(&started, &stopped))
	if err != nil {
		t.Fatal(err)
	}
	waitCond(t, "walltime completion", func() bool {
		st, _ := p.Status(id)
		return st == StatusCompleted
	})
	waitCond(t, "workers stopped", func() bool { return stopped.Load() == 1 })
}

func TestCloudProviderStartupDelay(t *testing.T) {
	var started, stopped atomic.Int32
	p := NewKubernetes(Config{NodesPerBlock: 2})
	p.StartupDelay = 30 * time.Millisecond
	submitAt := time.Now()
	id, err := p.SubmitBlock(countingPayload(&started, &stopped))
	if err != nil {
		t.Fatal(err)
	}
	st, _ := p.Status(id)
	if st != StatusPending {
		t.Fatalf("immediately running; status = %v", st)
	}
	waitCond(t, "instances up", func() bool { return started.Load() == 2 })
	if time.Since(submitAt) < 30*time.Millisecond {
		t.Fatal("startup delay not applied")
	}
	st, _ = p.Status(id)
	if st != StatusRunning {
		t.Fatalf("status = %v", st)
	}
	_ = p.CancelBlock(id)
	waitCond(t, "instances down", func() bool { return stopped.Load() == 2 })
	if p.liveInstances() != 0 {
		t.Fatalf("instances = %d", p.liveInstances())
	}
}

func TestCloudCancelBeforeBoot(t *testing.T) {
	var started, stopped atomic.Int32
	p := NewAWS(Config{NodesPerBlock: 4})
	p.StartupDelay = time.Hour
	id, err := p.SubmitBlock(countingPayload(&started, &stopped))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.CancelBlock(id); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if started.Load() != 0 {
		t.Fatal("payload ran on cancelled block")
	}
	if p.liveInstances() != 0 {
		t.Fatalf("instances = %d", p.liveInstances())
	}
}

func TestCloudQuota(t *testing.T) {
	p := NewGoogleCloud(Config{NodesPerBlock: 3})
	p.InstanceLimit = 5
	p.StartupDelay = 0
	ok := func(Node) (func(), error) { return func() {}, nil }
	if _, err := p.SubmitBlock(ok); err != nil {
		t.Fatal(err)
	}
	if _, err := p.SubmitBlock(ok); !errors.Is(err, ErrQuota) {
		t.Fatalf("err = %v", err)
	}
}

// A second cancel of the same block must not hand its instances back twice:
// the count would go negative and the quota would admit more than its limit.
func TestCloudDoubleCancelReleasesInstancesOnce(t *testing.T) {
	p := NewKubernetes(Config{NodesPerBlock: 2})
	p.InstanceLimit = 2
	p.StartupDelay = time.Hour
	ok := func(Node) (func(), error) { return func() {}, nil }
	id, err := p.SubmitBlock(ok)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := p.CancelBlock(id); err != nil {
			t.Fatalf("cancel %d: %v", i+1, err)
		}
	}
	if n := p.liveInstances(); n != 0 {
		t.Fatalf("instances after double cancel = %d, want 0", n)
	}
	next, err := p.SubmitBlock(ok)
	if err != nil {
		t.Fatal(err)
	}
	// Its startup wait is an hour: cancel it, or it outlives the test.
	defer func() { _ = p.CancelBlock(next) }()
	if _, err := p.SubmitBlock(ok); !errors.Is(err, ErrQuota) {
		t.Fatalf("second block within a limit of 2: err = %v, want ErrQuota", err)
	}
}

// A cancel that lands while the block is still bringing nodes up must leave
// nothing running: nodes not yet started stay down, and the one whose payload
// was in flight is stopped as soon as it returns.
func TestCloudCancelDuringStartupStopsEveryNode(t *testing.T) {
	p := NewKubernetes(Config{NodesPerBlock: 4})
	p.StartupDelay = 0
	var started, stopped atomic.Int32
	inFlight := make(chan struct{})
	release := make(chan struct{})
	id, err := p.SubmitBlock(func(n Node) (func(), error) {
		started.Add(1)
		if n.ID == 1 {
			close(inFlight)
			<-release
		}
		return func() { stopped.Add(1) }, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-inFlight
	if err := p.CancelBlock(id); err != nil {
		t.Fatal(err)
	}
	close(release)
	waitCond(t, "late node stopped", func() bool { return stopped.Load() == 2 })
	time.Sleep(20 * time.Millisecond) // room for a node the cancel failed to prevent
	if s, e := started.Load(), stopped.Load(); s != 2 || e != 2 {
		t.Fatalf("started %d, stopped %d; want 2 and 2", s, e)
	}
}

func TestCloudFlavors(t *testing.T) {
	for name, p := range map[string]*Cloud{
		"aws": NewAWS(Config{}), "googlecloud": NewGoogleCloud(Config{}),
		"jetstream": NewJetstream(Config{}), "kubernetes": NewKubernetes(Config{}),
	} {
		if p.Name() != name {
			t.Errorf("flavor %q has name %q", name, p.Name())
		}
	}
}

func TestProviderInterfaceCompliance(t *testing.T) {
	var _ Provider = (*Local)(nil)
	var _ Provider = (*Batch)(nil)
	var _ Provider = (*Cloud)(nil)
}

func TestConcurrentBlockChurn(t *testing.T) {
	p, _ := newSlurmOnCluster(t, 16, Config{NodesPerBlock: 2, Walltime: 40 * time.Millisecond})
	var started, stopped atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.SubmitBlock(countingPayload(&started, &stopped)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	waitCond(t, "all blocks churned", func() bool { return stopped.Load() == 20 })
	if started.Load() != 20 {
		t.Fatalf("started = %d", started.Load())
	}
}

// liveInstances reads the instance count the quota charges, under the lock.
func (c *Cloud) liveInstances() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.instances
}
