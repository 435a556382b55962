package strategy

import (
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/future"
	"repro/internal/serialize"
)

func TestSimpleScaleOutUnderPressure(t *testing.T) {
	s := Simple{Parallelism: 1}
	delta := s.Decide(Snapshot{Outstanding: 40, ActiveBlocks: 1, WorkersPerBlock: 5, MaxBlocks: 10})
	if delta != 7 { // need ceil(40/5)=8 blocks, have 1
		t.Fatalf("delta = %d", delta)
	}
}

func TestSimpleRespectsMaxBlocks(t *testing.T) {
	s := Simple{Parallelism: 1}
	delta := s.Decide(Snapshot{Outstanding: 1000, ActiveBlocks: 2, WorkersPerBlock: 5, MaxBlocks: 4})
	if delta != 2 {
		t.Fatalf("delta = %d", delta)
	}
}

func TestSimpleScaleInWhenIdle(t *testing.T) {
	s := Simple{Parallelism: 1}
	delta := s.Decide(Snapshot{Outstanding: 0, ActiveBlocks: 4, WorkersPerBlock: 5, MinBlocks: 1})
	if delta != -3 {
		t.Fatalf("delta = %d", delta)
	}
}

func TestSimpleRespectsMinBlocks(t *testing.T) {
	s := Simple{Parallelism: 1}
	delta := s.Decide(Snapshot{Outstanding: 0, ActiveBlocks: 2, WorkersPerBlock: 5, MinBlocks: 2})
	if delta != 0 {
		t.Fatalf("delta = %d", delta)
	}
}

func TestParallelismModeratesAggression(t *testing.T) {
	full := Simple{Parallelism: 1}.Decide(Snapshot{Outstanding: 100, WorkersPerBlock: 10, MaxBlocks: 100})
	half := Simple{Parallelism: 0.5}.Decide(Snapshot{Outstanding: 100, WorkersPerBlock: 10, MaxBlocks: 100})
	zero := Simple{Parallelism: 0}.Decide(Snapshot{Outstanding: 100, WorkersPerBlock: 10, MaxBlocks: 100})
	if full != 10 || half != 5 || zero != 0 {
		t.Fatalf("full=%d half=%d zero=%d", full, half, zero)
	}
}

func TestParallelismClamped(t *testing.T) {
	over := Simple{Parallelism: 5}.Decide(Snapshot{Outstanding: 10, WorkersPerBlock: 10, MaxBlocks: 100})
	under := Simple{Parallelism: -1}.Decide(Snapshot{Outstanding: 10, WorkersPerBlock: 10, MaxBlocks: 100})
	if over != 1 || under != 0 {
		t.Fatalf("over=%d under=%d", over, under)
	}
}

func TestZeroWorkersPerBlockIsNoop(t *testing.T) {
	if (Simple{Parallelism: 1}).Decide(Snapshot{Outstanding: 10}) != 0 {
		t.Fatal("decision with zero block capacity")
	}
}

// fakeScalable records scaling calls.
type fakeScalable struct {
	mu          sync.Mutex
	outstanding int
	blocks      int
	outs, ins   int
}

func (f *fakeScalable) Label() string { return "fake" }
func (f *fakeScalable) Start() error  { return nil }
func (f *fakeScalable) Submit(serialize.TaskMsg) *future.Future {
	panic("controller never submits")
}
func (f *fakeScalable) Outstanding() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.outstanding
}
func (f *fakeScalable) Shutdown() error { return nil }
func (f *fakeScalable) ScaleOut(n int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.blocks += n
	f.outs += n
	return nil
}
func (f *fakeScalable) ScaleIn(n int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.blocks -= n
	f.ins += n
	return nil
}
func (f *fakeScalable) ActiveBlocks() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.blocks
}
func (f *fakeScalable) ConnectedWorkers() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.blocks * 5
}

func (f *fakeScalable) setOutstanding(n int) {
	f.mu.Lock()
	f.outstanding = n
	f.mu.Unlock()
}

func TestControllerStepScalesOutAndIn(t *testing.T) {
	f := &fakeScalable{}
	c := NewController(f, Simple{Parallelism: 1}, ControllerConfig{
		WorkersPerBlock: 5, MinBlocks: 0, MaxBlocks: 10,
	})
	f.setOutstanding(23)
	c.Step()
	if f.blocks != 5 { // ceil(23/5)
		t.Fatalf("blocks = %d", f.blocks)
	}
	f.setOutstanding(0)
	c.Step()
	if f.blocks != 0 {
		t.Fatalf("blocks after drain = %d", f.blocks)
	}
	evs := c.Events()
	if len(evs) != 2 || evs[0].Delta != 5 || evs[1].Delta != -5 {
		t.Fatalf("events = %+v", evs)
	}
}

func TestControllerHoldoffDelaysScaleIn(t *testing.T) {
	f := &fakeScalable{}
	c := NewController(f, Simple{Parallelism: 1}, ControllerConfig{
		WorkersPerBlock: 5, MaxBlocks: 10, ScaleInHoldoff: 80 * time.Millisecond,
	})
	f.setOutstanding(10)
	c.Step()
	if f.blocks != 2 {
		t.Fatalf("blocks = %d", f.blocks)
	}
	f.setOutstanding(0)
	c.Step() // starts idle clock
	if f.blocks != 2 {
		t.Fatal("scaled in immediately despite holdoff")
	}
	time.Sleep(100 * time.Millisecond)
	c.Step()
	if f.blocks != 0 {
		t.Fatalf("blocks after holdoff = %d", f.blocks)
	}
}

func TestControllerPollingLoop(t *testing.T) {
	f := &fakeScalable{}
	c := NewController(f, Simple{Parallelism: 1}, ControllerConfig{
		Interval: 10 * time.Millisecond, WorkersPerBlock: 5, MaxBlocks: 4,
	})
	f.setOutstanding(100)
	c.Start()
	defer c.Stop()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && f.ActiveBlocks() != 4 {
		time.Sleep(time.Millisecond)
	}
	if f.ActiveBlocks() != 4 {
		t.Fatalf("blocks = %d", f.ActiveBlocks())
	}
}

func TestControllerStopIdempotent(t *testing.T) {
	f := &fakeScalable{}
	c := NewController(f, Simple{}, ControllerConfig{Interval: time.Millisecond})
	c.Start()
	c.Stop()
	c.Stop()
}

// Property: Simple never proposes a block count outside [MinBlocks,
// MaxBlocks] and the delta is always consistent with ActiveBlocks.
func TestQuickSimpleBounds(t *testing.T) {
	prop := func(outstanding uint16, active, wpb, min, max uint8) bool {
		if wpb == 0 {
			wpb = 1
		}
		lo, hi := int(min%8), int(min%8)+int(max%8)+1
		snap := Snapshot{
			Outstanding:     int(outstanding),
			ActiveBlocks:    int(active),
			WorkersPerBlock: int(wpb),
			MinBlocks:       lo,
			MaxBlocks:       hi,
		}
		target := int(active) + Simple{Parallelism: 1}.Decide(snap)
		return target >= lo && target <= hi
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
