package cluster

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newTestCluster(t *testing.T, nodes int) *Cluster {
	t.Helper()
	c, err := New(Config{Name: "test", Nodes: nodes, CoresPerNode: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func waitState(t *testing.T, j *Job, want JobState) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if j.State() == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %d state = %v, want %v", j.ID, j.State(), want)
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Nodes: 0}); err == nil {
		t.Fatal("0 nodes accepted")
	}
	c, err := New(Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c.Config().CoresPerNode != 1 {
		t.Fatal("cores default not applied")
	}
}

func TestSubmitRunsJob(t *testing.T) {
	c := newTestCluster(t, 4)
	started := make(chan *Job, 1)
	j, err := c.Submit(JobSpec{Name: "j", Nodes: 2, OnStart: func(j *Job) { started <- j }})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-started:
		if got.ID != j.ID {
			t.Fatal("wrong job started")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("job never started")
	}
	waitState(t, j, Running)
	if len(j.Nodes()) != 2 {
		t.Fatalf("nodes = %v", j.Nodes())
	}
	st := c.Stats()
	if st.BusyNodes != 2 || st.FreeNodes != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSubmitValidation(t *testing.T) {
	c := newTestCluster(t, 2)
	if _, err := c.Submit(JobSpec{Nodes: 0}); err == nil {
		t.Fatal("0-node job accepted")
	}
	if _, err := c.Submit(JobSpec{Nodes: 5}); err == nil {
		t.Fatal("oversized job accepted")
	}
}

func TestPartitionPolicy(t *testing.T) {
	c, err := New(Midway(4))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Submit(JobSpec{Nodes: 1, Partition: "gpu"}); !errors.Is(err, ErrBadPartition) {
		t.Fatalf("err = %v", err)
	}
	if _, err := c.Submit(JobSpec{Nodes: 1, Partition: "broadwl"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(JobSpec{Nodes: 1}); err != nil {
		t.Fatal("empty partition rejected")
	}
}

func TestMaxNodesPerJobPolicy(t *testing.T) {
	c, err := New(Config{Nodes: 10, MaxNodesPerJob: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Submit(JobSpec{Nodes: 5}); !errors.Is(err, ErrTooManyNodes) {
		t.Fatalf("err = %v", err)
	}
}

func TestFIFOQueueing(t *testing.T) {
	c := newTestCluster(t, 2)
	var order []int64
	var mu sync.Mutex
	onStart := func(j *Job) {
		mu.Lock()
		order = append(order, j.ID)
		mu.Unlock()
	}
	j1, _ := c.Submit(JobSpec{Nodes: 2, OnStart: onStart})
	j2, _ := c.Submit(JobSpec{Nodes: 2, OnStart: onStart})
	waitState(t, j1, Running)
	if j2.State() != Queued {
		t.Fatalf("j2 state = %v, want queued behind j1", j2.State())
	}
	// OnStart runs on its own goroutine: let j1's record its start before j2
	// can start, or the two callbacks race for the first slot.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		started := len(order)
		mu.Unlock()
		if started == 1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := c.Cancel(j1.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, j2, Running)
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != j1.ID || order[1] != j2.ID {
		t.Fatalf("start order = %v", order)
	}
}

func TestWalltimeExpiry(t *testing.T) {
	c := newTestCluster(t, 1)
	stopped := make(chan StopReason, 1)
	j, _ := c.Submit(JobSpec{
		Nodes:    1,
		Walltime: 20 * time.Millisecond,
		OnStop:   func(_ *Job, r StopReason) { stopped <- r },
	})
	waitState(t, j, Running)
	select {
	case r := <-stopped:
		if r != ReasonWalltime {
			t.Fatalf("reason = %v", r)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("walltime never enforced")
	}
	waitState(t, j, Completed)
	if c.Stats().FreeNodes != 1 {
		t.Fatal("nodes not released after walltime")
	}
}

func TestCancelQueuedJob(t *testing.T) {
	c := newTestCluster(t, 1)
	blocker, _ := c.Submit(JobSpec{Nodes: 1})
	waitState(t, blocker, Running)
	stopped := make(chan StopReason, 1)
	j, _ := c.Submit(JobSpec{Nodes: 1, OnStop: func(_ *Job, r StopReason) { stopped <- r }})
	if err := c.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	if r := <-stopped; r != ReasonCancelled {
		t.Fatalf("reason = %v", r)
	}
	waitState(t, j, Cancelled)
}

func TestCancelRunningJobReleasesNodes(t *testing.T) {
	c := newTestCluster(t, 2)
	j, _ := c.Submit(JobSpec{Nodes: 2})
	waitState(t, j, Running)
	if err := c.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, j, Cancelled)
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) && c.Stats().FreeNodes != 2 {
		time.Sleep(time.Millisecond)
	}
	if c.Stats().FreeNodes != 2 {
		t.Fatalf("free = %d", c.Stats().FreeNodes)
	}
}

func TestCancelUnknownJob(t *testing.T) {
	c := newTestCluster(t, 1)
	if err := c.Cancel(999); !errors.Is(err, ErrNoSuchJob) {
		t.Fatalf("err = %v", err)
	}
}

func TestQueueDelayEnforced(t *testing.T) {
	c, err := New(Config{Nodes: 1, QueueDelay: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	started := make(chan time.Time, 1)
	submit := time.Now()
	_, _ = c.Submit(JobSpec{Nodes: 1, OnStart: func(*Job) { started <- time.Now() }})
	at := <-started
	if at.Sub(submit) < 30*time.Millisecond {
		t.Fatalf("job started after %v, want >= queue delay", at.Sub(submit))
	}
}

func TestNodeFailureKillsJob(t *testing.T) {
	c := newTestCluster(t, 2)
	stopped := make(chan StopReason, 1)
	j, _ := c.Submit(JobSpec{Nodes: 2, OnStop: func(_ *Job, r StopReason) { stopped <- r }})
	waitState(t, j, Running)
	victim := j.Nodes()[0]
	if err := c.FailNode(victim); err != nil {
		t.Fatal(err)
	}
	if r := <-stopped; r != ReasonNodeFailure {
		t.Fatalf("reason = %v", r)
	}
	waitState(t, j, Failed)
	st := c.Stats()
	if st.FailedNodes != 1 || st.FreeNodes != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Repair returns the node to service.
	if err := c.RepairNode(victim); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) && c.Stats().FreeNodes != 2 {
		time.Sleep(time.Millisecond)
	}
	if c.Stats().FreeNodes != 2 {
		t.Fatalf("after repair: %+v", c.Stats())
	}
}

func TestFailNodeValidation(t *testing.T) {
	c := newTestCluster(t, 1)
	if err := c.FailNode(5); err == nil {
		t.Fatal("out-of-range node failed")
	}
	if err := c.FailNode(0); err != nil {
		t.Fatal(err)
	}
	if err := c.FailNode(0); err != nil {
		t.Fatal("double fail should be a no-op")
	}
	if err := c.RepairNode(5); err == nil {
		t.Fatal("out-of-range repair accepted")
	}
}

func TestFailedNodeNotAllocated(t *testing.T) {
	c := newTestCluster(t, 2)
	_ = c.FailNode(0)
	j, _ := c.Submit(JobSpec{Nodes: 1})
	waitState(t, j, Running)
	if j.Nodes()[0] == 0 {
		t.Fatal("failed node allocated")
	}
	if _, err := c.Submit(JobSpec{Nodes: 2}); err == nil {
		// 2-node job is still accepted (machine has 2 nodes), it just queues.
		st := c.Stats()
		if st.QueuedJobs != 1 {
			t.Fatalf("stats = %+v", st)
		}
	}
}

func TestCloseCancelsEverything(t *testing.T) {
	c := newTestCluster(t, 1)
	running, _ := c.Submit(JobSpec{Nodes: 1})
	waitState(t, running, Running)
	queued, _ := c.Submit(JobSpec{Nodes: 1})
	c.Close()
	waitState(t, running, Cancelled)
	waitState(t, queued, Cancelled)
	if _, err := c.Submit(JobSpec{Nodes: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close = %v", err)
	}
	c.Close() // double close safe
}

func TestConcurrentSubmitCancelChurn(t *testing.T) {
	c := newTestCluster(t, 8)
	var started atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 40; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, err := c.Submit(JobSpec{
				Nodes:    1 + i%3,
				Walltime: 10 * time.Millisecond,
				OnStart:  func(*Job) { started.Add(1) },
			})
			if err != nil {
				t.Error(err)
				return
			}
			if i%4 == 0 {
				_ = c.Cancel(j.ID)
			}
		}(i)
	}
	wg.Wait()
	// Wait for churn to settle: all nodes eventually free.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := c.Stats()
		if st.FreeNodes == 8 && st.QueuedJobs == 0 && st.RunningJobs == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("cluster did not settle: %+v", c.Stats())
}

func TestTestbedShapes(t *testing.T) {
	if cfg := Midway(10); cfg.CoresPerNode != 28 || cfg.Name != "midway" {
		t.Fatalf("midway = %+v", cfg)
	}
}
