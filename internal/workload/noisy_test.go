package workload

import (
	"testing"
	"time"
)

// TestNoisyFairShares runs the pure-DRR arm at test scale: with tenants
// weighted 10:1 and both backlogged, observed completion-throughput shares
// must land within 2× of the weight ratio.
func TestNoisyFairShares(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scenario")
	}
	res, err := RunNoisy(NoisyConfig{
		Workers: 8, QueueDepth: 8, TaskDuration: 4 * time.Millisecond,
		HeavyTasks: 4000, LightTasks: 150,
		HeavyWeight: 10, LightWeight: 1,
		Tenanted: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("shares heavy:light = %.1f:1, light p95 %v (uncontended %v, ratio %.1fx)",
		res.ShareRatio, res.ContendedP95, res.UncontendedP95, res.LatencyRatio)
	if res.ShareRatio < 5 || res.ShareRatio > 20 {
		t.Fatalf("share ratio %.1f:1 outside 2x of the 10:1 weight ratio", res.ShareRatio)
	}
	// Latency dilation under pure weighted sharing is bounded by the share
	// the weights grant: (10+1)/1 = 11x, plus scheduling noise — crucially
	// independent of the burst being 27x the light workload. The FIFO
	// contrast arm (TestNoisyFIFOContrast) shows what "unbounded" looks like.
	if res.LatencyRatio > 16 {
		t.Fatalf("light p95 dilated %.1fx, want <= ~11x (weight-predicted bound)", res.LatencyRatio)
	}
}

// TestNoisyBoundedAdmission runs the bounded-admission arm: with the burst
// tenant's live tasks quota-capped, the light tenant's p95 submit-to-start
// latency stays under 10× its uncontended value even while the burst runs.
func TestNoisyBoundedAdmission(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scenario")
	}
	res, err := RunNoisy(NoisyConfig{
		Workers: 8, QueueDepth: 2, TaskDuration: 4 * time.Millisecond,
		HeavyTasks: 4000, LightTasks: 150,
		HeavyWeight: 10, LightWeight: 1,
		HeavyQuota: 4,
		Tenanted:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("quota arm: light p95 %v (uncontended %v, ratio %.1fx), shares %.1f:1",
		res.ContendedP95, res.UncontendedP95, res.LatencyRatio, res.ShareRatio)
	if res.LatencyRatio >= 10 {
		t.Fatalf("light p95 dilated %.1fx under a quota-bounded burst, want < 10x", res.LatencyRatio)
	}
}

// TestNoisyFIFOContrast pins the "before" picture the fairness layer exists
// to fix: without tenancy the light workload queues in one FIFO behind what
// the burst has queued — since the DFK's ready-task window, at most a window
// of it, so the dilation no longer grows with the burst. Measured on a 2-core
// runner it reads 14.5–15.8x against the 12x floor below (about 31x before
// the window): a thin margin, so do not raise the floor without re-measuring
// on slow and -race runners.
func TestNoisyFIFOContrast(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second scenario")
	}
	res, err := RunNoisy(NoisyConfig{
		Workers: 8, QueueDepth: 8, TaskDuration: 4 * time.Millisecond,
		HeavyTasks: 4000, LightTasks: 150,
		Tenanted: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("fifo contrast: light p95 %v (uncontended %v, ratio %.1fx)",
		res.ContendedP95, res.UncontendedP95, res.LatencyRatio)
	// The light workload is 150 tasks behind a 4000-task burst: FIFO must
	// dilate it far beyond the fair-sharing arms (conservative floor).
	if res.LatencyRatio < 12 {
		t.Fatalf("FIFO contrast dilated only %.1fx — expected far worse than fair queuing", res.LatencyRatio)
	}
}
