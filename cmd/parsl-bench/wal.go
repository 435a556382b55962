package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/workload"
)

// runWAL drives the two-lifetime crash-recovery scenario at a spread of WAL
// record boundaries: a full matrix (every boundary) when tasks is small
// enough, otherwise a deterministic sample derived from the seed. Each row is
// one simulated process death — records 0..k-1 durable, everything after
// lost — followed by a recovery whose exactly-once invariants are checked.
// A failing boundary printed here is a complete reproduction recipe:
//
//	parsl-bench -seed <s> -tasks <n> wal
//	go test ./internal/workload/ -run TestWALCrashMatrix -race
func runWAL(o options) error {
	seed := o.seed
	if seed == 0 {
		seed = 1
	}
	dir, err := os.MkdirTemp("", "parsl-wal")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Baseline (no crash) pins the full record count: submit+launch+terminal
	// per task.
	base, err := workload.RunWALCrash(workload.WALCrashConfig{
		Tasks: o.tasks, Boundary: -1, Seed: seed, Dir: filepath.Join(dir, "base"),
	})
	if err != nil {
		return err
	}
	boundaries := sampleBoundaries(seed, base.Records)

	fmt.Printf("%d records at a clean run; crashing at %d boundaries (seed %d)\n\n",
		base.Records, len(boundaries), seed)
	fmt.Printf("%-8s %-9s %-10s %-11s %-10s %-10s %s\n",
		"verdict", "boundary", "live", "terminal", "reexec", "memohits", "recovery")
	var worst time.Duration
	failed, err := runMatrix("boundary", boundaries, func(k int64) (string, []string, error) {
		res, err := workload.RunWALCrash(workload.WALCrashConfig{
			Tasks: o.tasks, Boundary: k, Seed: seed,
			Dir: filepath.Join(dir, fmt.Sprintf("b%d", k)),
		})
		if err != nil {
			return "", nil, err
		}
		worst = max(worst, res.RecoveryTime)
		return fmt.Sprintf("%-9d %-10d %-11d %-10d %-10d %v",
			k, res.LiveAtCrash, res.TerminalAtCrash, res.ReExecuted,
			res.MemoHits, res.RecoveryTime.Round(time.Microsecond)), res.Violations, nil
	})
	if err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d boundaries violated exactly-once recovery", failed, len(boundaries))
	}
	fmt.Printf("\nall %d boundaries upheld exactly-once recovery (no task lost or double-delivered,\nevery pre-crash-terminal task resolved with its value and not re-executed,\nlaunch budget spans lifetimes); worst recovery %v\n",
		len(boundaries), worst.Round(time.Microsecond))
	return nil
}

// sampleBoundaries picks the crash points: every record boundary when the run
// is small, otherwise the edges plus a deterministic seed-derived spread (the
// same seed always re-runs the same boundaries).
func sampleBoundaries(seed, records int64) []int64 {
	const maxPoints = 24
	if records+1 <= maxPoints {
		out := make([]int64, 0, records+1)
		for k := int64(0); k <= records; k++ {
			out = append(out, k)
		}
		return out
	}
	seen := map[int64]bool{0: true, records: true}
	out := []int64{0, records}
	x := uint64(seed)
	for len(out) < maxPoints {
		// splitmix64 step: deterministic, seed-reproducible.
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		k := int64((z ^ (z >> 31)) % uint64(records+1))
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
