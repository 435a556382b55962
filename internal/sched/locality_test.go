package sched

import (
	"errors"
	"testing"

	"repro/internal/executor"
)

// fakeHolder is a digest-holding executor double: fakeExec's load
// signals plus the digestHolder probe and optional shard /
// aggregate-health state, so every branch of the Locality policy can be
// driven without an HTEX deployment.
type fakeHolder struct {
	fakeExec
	digests     map[string]bool
	health      string
	shardsAlive int
	shardsTotal int
}

func (f *fakeHolder) HoldsDigest(d string) bool       { return f.digests[d] }
func (f *fakeHolder) ShardCounts() (alive, total int) { return f.shardsAlive, f.shardsTotal }
func (f *fakeHolder) ShardHealth() string             { return f.health }

func holder(label string, outstanding int, digests ...string) *fakeHolder {
	f := &fakeHolder{fakeExec: fakeExec{label: label, outstanding: outstanding}}
	f.digests = make(map[string]bool, len(digests))
	for _, d := range digests {
		f.digests[d] = true
	}
	return f
}

func TestLocalityPrefersDigestHolder(t *testing.T) {
	p := NewLocality()
	// The holder is busier than the idle non-holder; locality must still
	// prefer it — that is the point of the policy.
	warm := holder("warm", 5, "d1")
	cold := holder("cold", 0)
	ex, err := p.PickDigest(execs(cold, warm), "d1")
	if err != nil || ex.Label() != "warm" {
		t.Fatalf("PickDigest = %v, %v; want warm", ex, err)
	}
	if hits, misses := p.Stats(); hits != 1 || misses != 0 {
		t.Fatalf("stats = %d hits, %d misses; want 1, 0", hits, misses)
	}
}

func TestLocalityLeastLoadedHolderWins(t *testing.T) {
	p := NewLocality()
	busy := holder("busy", 9, "d1")
	calm := holder("calm", 2, "d1")
	ex, err := p.PickDigest(execs(busy, calm), "d1")
	if err != nil || ex.Label() != "calm" {
		t.Fatalf("PickDigest = %v, %v; want calm", ex, err)
	}
}

func TestLocalityEmptyDigestFallsBack(t *testing.T) {
	p := NewLocality()
	a := holder("a", 3, "d1")
	b := holder("b", 1)
	// No digest signal at all: behave exactly like least-outstanding.
	ex, err := p.PickDigest(execs(a, b), "")
	if err != nil || ex.Label() != "b" {
		t.Fatalf("PickDigest(\"\") = %v, %v; want b", ex, err)
	}
	if hits, misses := p.Stats(); hits != 0 || misses != 1 {
		t.Fatalf("stats = %d hits, %d misses; want 0, 1", hits, misses)
	}
}

func TestLocalityNoHolderFallsBackWithoutStalling(t *testing.T) {
	p := NewLocality()
	a := holder("a", 3, "other")
	b := holder("b", 1)
	// Nobody holds d9 (a manager-less or freshly started fleet): the pick
	// must resolve immediately via least-outstanding, never error or stall
	// waiting for a holding.
	ex, err := p.PickDigest(execs(a, b), "d9")
	if err != nil || ex.Label() != "b" {
		t.Fatalf("PickDigest = %v, %v; want b", ex, err)
	}
}

func TestLocalitySkipsDeadAndOpenHolders(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*fakeHolder)
	}{
		{"health-down", func(f *fakeHolder) { f.health = "down" }},
		{"breaker-open", func(f *fakeHolder) { f.health = "open" }},
		{"all-shards-dead", func(f *fakeHolder) { f.shardsAlive, f.shardsTotal = 0, 2 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := NewLocality()
			// If the policy wrongly honored the unusable holder's
			// holding it would pick "bad" as a hit despite the
			// load gap; a clean skip falls back to least-outstanding,
			// which lands on "good".
			bad := holder("bad", 9, "d1")
			tc.mut(bad)
			good := holder("good", 2)
			ex, err := p.PickDigest(execs(bad, good), "d1")
			if err != nil {
				t.Fatalf("PickDigest: %v", err)
			}
			// The unusable holder is skipped; with no live holder left the
			// fallback applies over the full candidate set.
			if ex.Label() != "good" {
				t.Fatalf("picked %s; want good (unusable holder skipped)", ex.Label())
			}
			if hits, misses := p.Stats(); hits != 0 || misses != 1 {
				t.Fatalf("stats = %d hits, %d misses; want 0, 1", hits, misses)
			}
		})
	}
}

func TestLocalityDegradedHolderStillServes(t *testing.T) {
	p := NewLocality()
	// One shard of two is gone — degraded, but the live shard can still
	// serve the warm hit; the policy must not treat degraded as dead.
	limp := holder("limp", 4, "d1")
	limp.shardsAlive, limp.shardsTotal = 1, 2
	limp.health = "degraded"
	fresh := holder("fresh", 0)
	ex, err := p.PickDigest(execs(limp, fresh), "d1")
	if err != nil || ex.Label() != "limp" {
		t.Fatalf("PickDigest = %v, %v; want limp", ex, err)
	}
}

func TestLocalityEmptyCandidates(t *testing.T) {
	p := NewLocality()
	if _, err := p.PickDigest(nil, "d1"); !errors.Is(err, ErrNoExecutors) {
		t.Fatalf("err = %v; want ErrNoExecutors", err)
	}
	if _, err := p.Pick(nil); !errors.Is(err, ErrNoExecutors) {
		t.Fatalf("Pick err = %v; want ErrNoExecutors", err)
	}
}

func TestLocalityThroughFrozenSnapshot(t *testing.T) {
	// The DFK hands load-aware policies Frozen snapshots, not raw executors;
	// LoadOf returns the sampled Load, whose digest probe stays live
	// (HasDigest is a bound method, so a holding recorded after Freeze is
	// still seen).
	warm := holder("warm", 0, "d1")
	cold := holder("cold", 0)
	fwarm, fcold := Freeze(warm, 0), Freeze(cold, 0)
	lw, lc := LoadOf(fwarm), LoadOf(fcold)
	if lw.HasDigest == nil || !lw.HasDigest("d1") || lc.HasDigest("d1") {
		t.Fatal("LoadOf(Frozen) digest probe wrong")
	}
	warm.digests["d2"] = true
	if !lw.HasDigest("d2") {
		t.Fatal("Frozen probe must stay live across holding updates")
	}
	p := NewLocality()
	ex, err := p.PickDigest([]executor.Executor{fcold, fwarm}, "d1")
	if err != nil || ex.Label() != "warm" {
		t.Fatalf("PickDigest over Frozen = %v, %v; want warm", ex, err)
	}
	// The sampled breaker state rides the snapshot too: a down holder is
	// skipped as it is when handed over raw.
	down := holder("down", 5, "d1")
	down.health = "down"
	if ex, err := p.PickDigest([]executor.Executor{Freeze(down, 0), fcold}, "d1"); err != nil || ex.Label() != "cold" {
		t.Fatalf("PickDigest over a down Frozen holder = %v, %v; want cold", ex, err)
	}
}

func TestLocalityByName(t *testing.T) {
	s, err := ByName("locality", 0)
	if err != nil {
		t.Fatalf("ByName: %v", err)
	}
	if s.Name() != "locality" {
		t.Fatalf("name = %q", s.Name())
	}
	if la, ok := s.(LoadAware); !ok || !la.UsesLoad() {
		t.Fatal("locality must report UsesLoad")
	}
	if _, ok := s.(DigestPicker); !ok {
		t.Fatal("locality must implement DigestPicker")
	}
}
