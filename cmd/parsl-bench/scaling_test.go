package main

import (
	"testing"
	"time"
)

// TestMakespansMatchEventEngine pins the recurrence to the discrete-event
// engine it replaced: six makespans (ns) taken from that engine, one per
// framework plus the largest weak-scaling point -full prints.
func TestMakespansMatchEventEngine(t *testing.T) {
	for _, c := range []struct {
		p       params
		tasks   int
		dur     time.Duration
		workers int
		want    time.Duration
	}{
		{htexModel, 50_000, 0, 2048, 42_352_100_000},
		{exexModel, 50_000, time.Second, 262_144, 43_504_100_000},
		{ippModel, 50_000, 10 * time.Millisecond, 2048, 303_013_500_000},
		{daskModel, 81_920, 100 * time.Millisecond, 8192, 181_604_102_000},
		{fireworksModel, 5000, time.Second, 1024, 3_751_012_000_000},
		{htexModel, 2_621_440, time.Second, 262_144, 2_221_361_780_000},
	} {
		if got := simulate(c.p, c.tasks, c.dur, c.workers).makespan; got != c.want {
			t.Errorf("%s %d × %v @ %d workers: makespan %d ns, engine gave %d",
				c.p.name, c.tasks, c.dur, c.workers, got, c.want)
		}
	}
}

func TestThroughputMatchesTable2Shape(t *testing.T) {
	// Paper (Table 2): IPP 330, HTEX 1181, EXEX 1176, FireWorks 4, Dask
	// 2617 tasks/s. The model must land within 15% of each and preserve
	// the ordering Dask > HTEX ≈ EXEX > IPP > FireWorks.
	want := map[string]float64{
		"parsl-htex": 1181, "parsl-exex": 1176, "parsl-ipp": 330,
		"dask": 2617, "fireworks": 4,
	}
	got := map[string]float64{}
	for _, p := range models {
		workers := 256
		if p.maxWorkers > 0 && workers > p.maxWorkers {
			workers = p.maxWorkers
		}
		got[p.name] = throughput(p, workers).rate
	}
	for name, w := range want {
		g := got[name]
		if g < w*0.85 || g > w*1.15 {
			t.Errorf("%s throughput = %.0f tasks/s, paper %.0f", name, g, w)
		}
	}
	if !(got["dask"] > got["parsl-htex"] && got["parsl-htex"] >= got["parsl-exex"] &&
		got["parsl-exex"] > got["parsl-ipp"] && got["parsl-ipp"] > got["fireworks"]) {
		t.Errorf("throughput ordering violated: %v", got)
	}
}

func TestProbeMaxWorkersMatchesTable2(t *testing.T) {
	// Paper (Table 2): IPP 2048 w / 64 n; HTEX 65536 w / 2048 n*; EXEX
	// 262144 w / 8192 n*; FireWorks 1024 w / 32 n; Dask 8192 w / 256 n.
	// (* allocation-limited, not architectural.)
	cases := []struct {
		p         params
		alloc     int
		workers   int
		nodes     int
		limitedBy string
	}{
		{htexModel, 2048, 65536, 2048, "allocation"},
		{exexModel, 8192, 262144, 8192, "allocation"},
		{ippModel, 8192, 2048, 64, "architecture"},
		{daskModel, 8192, 8192, 256, "architecture"},
		{fireworksModel, 8192, 1024, 32, "architecture"},
	}
	for _, c := range cases {
		got := probeMaxWorkers(c.p, c.alloc)
		if got.maxWorkers != c.workers || got.maxNodes != c.nodes || got.limitedBy != c.limitedBy {
			t.Errorf("%s probe = %+v, want %d workers / %d nodes (%s)",
				c.p.name, got, c.workers, c.nodes, c.limitedBy)
		}
	}
}

func TestStrongScalingHTEXNearlyConstant(t *testing.T) {
	// §5.2: "both HTEX and EXEX remain nearly constant" with increasing
	// workers for the no-op strong-scaling workload.
	sweep := []int{256, 1024, 4096, 16384, 65536}
	res := strongScaling(htexModel, 50000, 0, sweep)
	base := res[0].makespan
	for _, r := range res[1:] {
		ratio := float64(r.makespan) / float64(base)
		if ratio > 1.3 || ratio < 0.5 {
			t.Errorf("HTEX makespan at %d workers = %v (base %v): not near-constant",
				r.workers, r.makespan, base)
		}
	}
}

func TestStrongScalingIPPDegradesBeyondKnee(t *testing.T) {
	// IPP and Dask "exhibit a similar trend of increasing overhead as the
	// number of workers increases beyond 512".
	at512 := simulate(ippModel, 50000, 0, 512).makespan
	at2048 := simulate(ippModel, 50000, 0, 2048).makespan
	if at2048 <= at512 {
		t.Errorf("IPP did not degrade past the knee: 512w=%v 2048w=%v", at512, at2048)
	}
}

func TestStrongScalingSpeedupWithLongTasks(t *testing.T) {
	// For 1000 ms tasks, more workers must mean (near-)linear speedup
	// until the central stage dominates.
	r64 := simulate(htexModel, 5000, time.Second, 64)
	r512 := simulate(htexModel, 5000, time.Second, 512)
	speedup := float64(r64.makespan) / float64(r512.makespan)
	if speedup < 6 || speedup > 8.5 { // ideal 8×
		t.Errorf("speedup 64→512 workers = %.2f, want ≈8", speedup)
	}
}

func TestStrongScalingFireWorksOrderOfMagnitudeWorse(t *testing.T) {
	// "FireWorks has the highest overhead even with only 5000 tasks:
	// almost an order of magnitude greater."
	fw := simulate(fireworksModel, 5000, 0, 256)
	htex := simulate(htexModel, 50000, 0, 256)
	// Normalize per task: FireWorks per-task cost must be ≳ 100× HTEX's.
	fwPerTask := fw.makespan.Seconds() / 5000
	htexPerTask := htex.makespan.Seconds() / 50000
	if fwPerTask < 50*htexPerTask {
		t.Errorf("fireworks per-task %.4fs vs htex %.6fs: gap too small", fwPerTask, htexPerTask)
	}
}

func TestWeakScalingKneeOrdering(t *testing.T) {
	// Fig. 4 bottom: FireWorks goes sublinear ~32 workers, IPP ~256,
	// Dask/HTEX/EXEX ~1024. Measure the knee as the first sweep point
	// where makespan exceeds 1.5× the single-worker makespan.
	sweep := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}
	knee := func(p params) int {
		res := weakScaling(p, 10, time.Second, sweep)
		base := res[0].makespan
		for _, r := range res[1:] {
			if float64(r.makespan) > 1.5*float64(base) {
				return r.workers
			}
		}
		return 1 << 30
	}
	fw, ipp, dask, htex := knee(fireworksModel), knee(ippModel), knee(daskModel), knee(htexModel)
	if !(fw < ipp && ipp < dask && dask <= htex) {
		t.Errorf("knee ordering: fw=%d ipp=%d dask=%d htex=%d", fw, ipp, dask, htex)
	}
	if fw > 64 {
		t.Errorf("fireworks knee = %d, paper ≈32", fw)
	}
	if ipp < 128 || ipp > 1024 {
		t.Errorf("ipp knee = %d, paper ≈256", ipp)
	}
	if htex < 512 {
		t.Errorf("htex knee = %d, paper ≈1024", htex)
	}
}

func TestWeakScalingFlatBeforeKnee(t *testing.T) {
	res := weakScaling(htexModel, 10, time.Second, []int{1, 8, 64, 256})
	base := res[0].makespan
	for _, r := range res {
		if float64(r.makespan) > 1.3*float64(base) {
			t.Errorf("pre-knee weak scaling not flat: %d workers → %v (base %v)",
				r.workers, r.makespan, base)
		}
	}
}

func TestSweepStopsAtArchitecturalCap(t *testing.T) {
	res := strongScaling(ippModel, 1000, 0, []int{1024, 2048, 4096, 8192})
	if len(res) != 2 {
		t.Fatalf("IPP sweep returned %d points, want 2 (cap 2048)", len(res))
	}
}

func TestMillionTaskRunCompletes(t *testing.T) {
	// The paper's largest weak-scaling point: 3125 nodes × 32 workers ×
	// 10 tasks = 1M tasks. Virtual time must remain finite and sane.
	r := simulate(exexModel, 1_000_000, time.Second, 100_000)
	if r.makespan <= 0 {
		t.Fatal("million-task run produced no makespan")
	}
	// Central stage: 1M × 0.85 ms = 850 s is the floor.
	if r.makespan < 800*time.Second || r.makespan > 2000*time.Second {
		t.Fatalf("makespan = %v, expected ≈850–900 s", r.makespan)
	}
}

func TestRunClampsWorkersToCap(t *testing.T) {
	r := simulate(daskModel, 100, 0, 100000)
	if r.workers != daskModel.maxWorkers {
		t.Fatalf("workers = %d", r.workers)
	}
}

func TestEffCentralInflation(t *testing.T) {
	p := ippModel
	base := p.effCentral(100)
	if base != p.centralService {
		t.Fatal("inflation applied below knee")
	}
	at4096 := p.effCentral(4096) // 3 doublings past 512
	want := time.Duration(float64(p.centralService) * (1 + 0.5*3))
	if at4096 != want {
		t.Fatalf("effCentral(4096) = %v, want %v", at4096, want)
	}
	if htexModel.effCentral(1<<20) != htexModel.centralService {
		t.Fatal("HTEX central inflated")
	}
}
