package htex

import (
	"fmt"
	"reflect"
	"testing"
)

// TestShardMapPlacementStability is the bounded-key-movement contract:
// removing one shard moves only the keys that shard owned (they fall to ring
// successors), and restoring it moves exactly those keys back. Everyone
// else's placement is untouched through the whole membership episode.
func TestShardMapPlacementStability(t *testing.T) {
	const shards, keys = 5, 10_000
	m := NewShardMap(shards)

	before := make([]int, keys)
	for i := range before {
		before[i] = m.PlaceTaskFunc("", int64(i), acceptAll)
	}
	if !m.Remove(2) {
		t.Fatal("Remove(2) refused")
	}
	moved := 0
	for i := range before {
		got := m.PlaceTaskFunc("", int64(i), acceptAll)
		if before[i] == 2 {
			if got == 2 {
				t.Fatalf("key %d still places on removed shard 2", i)
			}
			moved++
			continue
		}
		if got != before[i] {
			t.Fatalf("key %d moved %d→%d though shard %d is alive — movement must be bounded to the removed shard's keys",
				i, before[i], got, before[i])
		}
	}
	if moved == 0 {
		t.Fatal("shard 2 owned no keys out of 10k — ring spread broken")
	}
	// A fair ring gives shard 2 about keys/shards of the keyspace; allow 2×.
	if max := 2 * keys / shards; moved > max {
		t.Fatalf("%d keys moved on one shard removal (fair share %d, cap %d)", moved, keys/shards, max)
	}

	if !m.Restore(2) {
		t.Fatal("Restore(2) refused")
	}
	for i := range before {
		if got := m.PlaceTaskFunc("", int64(i), acceptAll); got != before[i] {
			t.Fatalf("key %d at %d after restore, want original %d", i, got, before[i])
		}
	}
}

// TestShardMapTenantAffinity: every task of one tenant lands on one shard
// regardless of wire id, and distinct tenants actually spread.
func TestShardMapTenantAffinity(t *testing.T) {
	m := NewShardMap(4)
	for tenant := 0; tenant < 50; tenant++ {
		name := fmt.Sprintf("tenant-%d", tenant)
		home := m.PlaceTaskFunc(name, 0, acceptAll)
		for id := int64(1); id < 100; id++ {
			if got := m.PlaceTaskFunc(name, id, acceptAll); got != home {
				t.Fatalf("%s task %d on shard %d, tenant home is %d — tenant affinity broken", name, id, got, home)
			}
		}
	}
	homes := map[int]bool{}
	for tenant := 0; tenant < 50; tenant++ {
		homes[m.PlaceTaskFunc(fmt.Sprintf("tenant-%d", tenant), 0, acceptAll)] = true
	}
	if len(homes) < 2 {
		t.Fatalf("50 tenants all hashed to %d shard(s) of 4", len(homes))
	}
	// Tenantless tasks spread by id.
	spread := map[int]bool{}
	for id := int64(0); id < 1000; id++ {
		spread[m.PlaceTaskFunc("", id, acceptAll)] = true
	}
	if len(spread) != 4 {
		t.Fatalf("tenantless ids reached %d shards of 4", len(spread))
	}
}

// TestShardMapDeterministic: placement is a pure function of (membership,
// key) — two maps with the same history agree on every key, which is what
// lets seeded scenarios reproduce cross-process.
func TestShardMapDeterministic(t *testing.T) {
	a, b := NewShardMap(6), NewShardMap(6)
	a.Remove(1)
	b.Remove(1)
	for i := int64(0); i < 2000; i++ {
		if a.PlaceTaskFunc("", i, acceptAll) != b.PlaceTaskFunc("", i, acceptAll) {
			t.Fatalf("maps with identical membership disagree on id %d", i)
		}
	}
	if a.PlaceManagerBounded("mgr-b0-7", nil) != b.PlaceManagerBounded("mgr-b0-7", nil) {
		t.Fatal("maps disagree on string key placement")
	}
}

// TestShardMapMergedDepthsEquivalence: splitting one tenant backlog across
// shards and merging the per-shard views reproduces exactly the single-shard
// map — the merged-Load contract the scheduler layer relies on.
func TestShardMapMergedDepthsEquivalence(t *testing.T) {
	m := NewShardMap(4)
	single := map[string]int{}
	perShard := make([]map[string]int, 4)
	for i := 0; i < 500; i++ {
		tenant := fmt.Sprintf("t%d", i%7)
		single[tenant]++
		s := m.PlaceTaskFunc(tenant, int64(i), acceptAll)
		if perShard[s] == nil {
			perShard[s] = map[string]int{}
		}
		perShard[s][tenant]++
	}
	if got := MergeTenantDepths(perShard...); !reflect.DeepEqual(got, single) {
		t.Fatalf("merged view %v != single-shard view %v", got, single)
	}
	if MergeTenantDepths(nil, nil) != nil {
		t.Fatal("merging empty shards should report nil, like an empty queue")
	}
	if got := MergeTenantDepths(map[string]int{"a": 1}, nil, map[string]int{"a": 2, "b": 3}); got["a"] != 3 || got["b"] != 3 {
		t.Fatalf("merge = %v", got)
	}
}

// TestShardMapBoundedManagerPlacement: sequential manager placement with
// live counts leaves no shard manager-less once managers ≥ shards, and no
// shard hoards more than the ceil-share bound.
func TestShardMapBoundedManagerPlacement(t *testing.T) {
	const shards, managers = 4, 8
	m := NewShardMap(shards)
	counts := make([]int, shards)
	for i := 0; i < managers; i++ {
		s := m.PlaceManagerBounded(fmt.Sprintf("mgr-b%d-%d", i, i), counts)
		counts[s]++
	}
	for s, n := range counts {
		if n == 0 {
			t.Fatalf("shard %d got no managers (counts %v) — its queued tasks could never drain", s, counts)
		}
		if n > (managers+shards)/shards {
			t.Fatalf("shard %d got %d managers, above the bounded-load cap (counts %v)", s, n, counts)
		}
	}
}

// acceptAll is the veto that refuses no shard.
func acceptAll(int) bool { return true }

// TestShardMapPlaceTaskFunc: a vetoed preferred shard spills to a different
// alive shard; an all-veto map falls back to the preferred shard rather
// than failing placement.
func TestShardMapPlaceTaskFunc(t *testing.T) {
	m := NewShardMap(3)
	preferred := m.PlaceTaskFunc("hot-tenant", 0, acceptAll)
	got := m.PlaceTaskFunc("hot-tenant", 0, func(s int) bool { return s != preferred })
	if got == preferred {
		t.Fatalf("veto of shard %d ignored", preferred)
	}
	if all := m.PlaceTaskFunc("hot-tenant", 0, func(int) bool { return false }); all != preferred {
		t.Fatalf("all-veto placement = %d, want preferred %d", all, preferred)
	}
	if ok := m.PlaceTaskFunc("hot-tenant", 0, func(int) bool { return true }); ok != preferred {
		t.Fatalf("no-veto placement = %d, want preferred %d (spill must not reorder clean placement)", ok, preferred)
	}

	// The spill walk asks every other shard before it gives up, however many
	// vnodes of vetoed shards it passes first: with the preferred shard and
	// one other vetoed (two of three, two of four), or all but one (three of
	// four), it lands on a shard that accepts.
	for _, shards := range []int{3, 4} {
		m := NewShardMap(shards)
		for id := int64(0); id < 1000; id++ {
			preferred := m.PlaceTaskFunc("", id, acceptAll)
			for other := 0; other < shards; other++ {
				if other == preferred {
					continue
				}
				vetoed := func(s int) bool { return s == preferred || s == other }
				if got := m.PlaceTaskFunc("", id, func(s int) bool { return !vetoed(s) }); vetoed(got) {
					t.Fatalf("%d shards, id %d: shards %d and %d vetoed, placed on %d", shards, id, preferred, other, got)
				}
				if shards == 4 {
					if got := m.PlaceTaskFunc("", id, func(s int) bool { return s == other }); got != other {
						t.Fatalf("4 shards, id %d: only shard %d accepts, placed on %d", id, other, got)
					}
				}
			}
		}
	}
	// Past 64 shards the walk stops tracking which it asked, and still
	// reaches the one that accepts.
	wide := NewShardMap(70)
	for id := int64(0); id < 100; id++ {
		for _, only := range []int{3, 66} {
			if got := wide.PlaceTaskFunc("", id, func(s int) bool { return s == only }); got != only {
				t.Fatalf("70 shards, id %d: only shard %d accepts, placed on %d", id, only, got)
			}
		}
	}
}

// TestShardMapLastShard: the map never goes empty — the final alive shard
// cannot be removed, and the single-shard fast path always answers 0 work.
func TestShardMapLastShard(t *testing.T) {
	m := NewShardMap(2)
	if !m.Remove(0) {
		t.Fatal("Remove(0) refused with two alive")
	}
	if m.Remove(1) {
		t.Fatal("removed the last alive shard")
	}
	if m.Remove(0) {
		t.Fatal("double-removed shard 0")
	}
	if got := m.PlaceTaskFunc("any", 42, acceptAll); got != 1 {
		t.Fatalf("placement on sole survivor = %d, want 1", got)
	}
	if alive, total := m.AliveCount(), m.Total(); alive != 1 || total != 2 {
		t.Fatalf("alive/total = %d/%d, want 1/2", alive, total)
	}
	if got := m.PlaceManagerBounded("mgr-b0-0", []int{0, 0}); got != 1 {
		t.Fatalf("manager placement on sole survivor = %d, want 1", got)
	}
}
