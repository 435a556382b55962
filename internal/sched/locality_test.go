package sched

import (
	"errors"
	"testing"

	"repro/internal/executor"
)

// fakeHolder is a digest-holding executor double: fakeExec's load
// signals plus the digestHolder probe, so every branch of the Locality
// policy can be driven without an HTEX deployment.
type fakeHolder struct {
	fakeExec
	digests map[string]bool
}

func (f *fakeHolder) HoldsDigest(d string) bool { return f.digests[d] }

func holder(label string, outstanding int, digests ...string) *fakeHolder {
	f := &fakeHolder{fakeExec: fakeExec{label: label, outstanding: outstanding}}
	f.digests = make(map[string]bool, len(digests))
	for _, d := range digests {
		f.digests[d] = true
	}
	return f
}

// shardedHolder mirrors a sharded HTEX's digest probe: holdings are recorded
// per interchange shard and HoldsDigest reads only the live shards, so a
// shard's death drops its holdings the way htex.Executor.HoldsDigest does.
type shardedHolder struct {
	fakeExec
	shards []map[string]bool
	down   []bool
}

func newShardedHolder(label string, outstanding, shards int) *shardedHolder {
	f := &shardedHolder{fakeExec: fakeExec{label: label, outstanding: outstanding}}
	f.shards = make([]map[string]bool, shards)
	for i := range f.shards {
		f.shards[i] = map[string]bool{}
	}
	f.down = make([]bool, shards)
	return f
}

func (f *shardedHolder) kill(shard int) { f.down[shard] = true }

func (f *shardedHolder) HoldsDigest(d string) bool {
	for i, held := range f.shards {
		if !f.down[i] && held[d] {
			return true
		}
	}
	return false
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
		// cut makes the busy holder unusable the way a deployment does and
		// returns the candidate set the router hands the policy.
		cut func(bad *shardedHolder, good executor.Executor) []executor.Executor
	}{
		// The router freezes its candidates before the pick; a shard death
		// after the snapshot still drops the holding, since the snapshot's
		// digest probe reads the executor live.
		{"health-down", func(bad *shardedHolder, good executor.Executor) []executor.Executor {
			bad.shards[1]["d1"] = true
			cands := execs(Freeze(bad, 0), Freeze(good, 0))
			bad.kill(0)
			bad.kill(1)
			return cands
		}},
		// The health plane's breaker filter drops an open executor from
		// the candidate set before any policy runs.
		{"breaker-open", func(_ *shardedHolder, good executor.Executor) []executor.Executor {
			return execs(good)
		}},
		{"all-shards-dead", func(bad *shardedHolder, good executor.Executor) []executor.Executor {
			bad.kill(0)
			bad.kill(1)
			return execs(bad, good)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := NewLocality()
			// If the policy wrongly honored the unusable holder's
			// holding it would pick "bad" as a hit despite the
			// load gap; a clean skip falls back to least-outstanding,
			// which lands on "good".
			bad := newShardedHolder("bad", 9, 2)
			bad.shards[0]["d1"] = true
			good := holder("good", 2)
			if ex, err := NewLocality().PickDigest(execs(bad, good), "d1"); err != nil || ex.Label() != "bad" {
				t.Fatalf("healthy holder: PickDigest = %v, %v; want bad", ex, err)
			}
			ex, err := p.PickDigest(tc.cut(bad, good), "d1")
			if err != nil {
				t.Fatalf("PickDigest: %v", err)
			}
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
	// One shard of two is gone — degraded, but the live shard still holds
	// the digest and can serve the warm hit; only the dead shard's holding
	// is lost.
	limp := newShardedHolder("limp", 4, 2)
	limp.shards[0]["d0"] = true
	limp.shards[1]["d1"] = true
	limp.kill(0)
	fresh := holder("fresh", 0)
	ex, err := p.PickDigest(execs(Freeze(limp, 0), Freeze(fresh, 0)), "d1")
	if err != nil || ex.Label() != "limp" {
		t.Fatalf("PickDigest = %v, %v; want limp", ex, err)
	}
	ex, err = p.PickDigest(execs(Freeze(limp, 0), Freeze(fresh, 0)), "d0")
	if err != nil || ex.Label() != "fresh" {
		t.Fatalf("PickDigest of the dead shard's digest = %v, %v; want fresh", ex, err)
	}
	if hits, misses := p.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("stats = %d hits, %d misses; want 1, 1", hits, misses)
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
	// The DFK hands policies candidates that report their own load, not raw
	// executors; for a Frozen snapshot LoadOf returns the sampled Load,
	// whose digest probe stays live
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
}

func TestLocalityByName(t *testing.T) {
	s, err := ByName("locality", 0)
	if err != nil {
		t.Fatalf("ByName: %v", err)
	}
	if s.Name() != "locality" {
		t.Fatalf("name = %q", s.Name())
	}
	if _, ok := s.(DigestPicker); !ok {
		t.Fatal("locality must implement DigestPicker")
	}
}
