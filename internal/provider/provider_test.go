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
	var started, stopped atomic.Int32
	p := NewLocal(Config{})
	id, err := p.SubmitBlock(countingPayload(&started, &stopped))
	if err != nil {
		t.Fatal(err)
	}
	if started.Load() != 1 {
		t.Fatalf("a block of the default size started %d nodes, want 1", started.Load())
	}
	if err := p.CancelBlock(id); err != nil {
		t.Fatal(err)
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

func TestProviderInterfaceCompliance(t *testing.T) {
	var _ Provider = (*Local)(nil)
	var _ Provider = (*Batch)(nil)
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
