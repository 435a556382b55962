package htex

import (
	"fmt"
	"testing"
)

// acceptAll is the veto that refuses no shard.
func acceptAll(int) bool { return true }

// refuse returns the veto that refuses exactly the given shards — a removed
// (dead) shard is, to placement, one the caller refuses.
func refuse(shards ...int) func(int) bool {
	return func(s int) bool {
		for _, r := range shards {
			if s == r {
				return false
			}
		}
		return true
	}
}

// TestShardPlacementStability is the bounded-key-movement contract:
// refusing one shard moves only the keys that shard owned (they fall to
// their next-ranked shards), and accepting it again moves exactly those keys
// back. Everyone else's placement is untouched through the whole episode.
func TestShardPlacementStability(t *testing.T) {
	const shards, keys = 5, 10_000
	before := make([]int, keys)
	for i := range before {
		before[i] = taskShard(shards, "", int64(i), acceptAll, acceptAll)
	}
	moved := 0
	for i := range before {
		got := taskShard(shards, "", int64(i), refuse(2), acceptAll)
		if before[i] == 2 {
			if got == 2 {
				t.Fatalf("key %d still places on refused shard 2", i)
			}
			moved++
			continue
		}
		if got != before[i] {
			t.Fatalf("key %d moved %d→%d though shard %d is accepted — movement must be bounded to the refused shard's keys",
				i, before[i], got, before[i])
		}
	}
	if moved == 0 {
		t.Fatal("shard 2 owned no keys out of 10k — hash spread broken")
	}
	// A fair hash gives shard 2 about keys/shards of the keyspace; allow 2×.
	if max := 2 * keys / shards; moved > max {
		t.Fatalf("%d keys moved on one shard removal (fair share %d, cap %d)", moved, keys/shards, max)
	}
	for i := range before {
		if got := taskShard(shards, "", int64(i), acceptAll, acceptAll); got != before[i] {
			t.Fatalf("key %d at %d after restore, want original %d", i, got, before[i])
		}
	}
}

// TestShardPlacementFairShare: the per-shard score alone spreads tenantless
// ids within ±10 % of each shard's fair share.
func TestShardPlacementFairShare(t *testing.T) {
	const shards, keys = 5, 50_000
	counts := make([]int, shards)
	for i := 0; i < keys; i++ {
		counts[taskShard(shards, "", int64(i), acceptAll, acceptAll)]++
	}
	fair := keys / shards
	for s, n := range counts {
		if n < fair*9/10 || n > fair*11/10 {
			t.Fatalf("shard %d got %d of %d ids (fair share %d ±10%%; counts %v)", s, n, keys, fair, counts)
		}
	}
}

// TestShardPlacementTenantAffinity: every task of one tenant lands on one
// shard regardless of wire id, and distinct tenants actually spread.
func TestShardPlacementTenantAffinity(t *testing.T) {
	const shards = 4
	for tenant := 0; tenant < 50; tenant++ {
		name := fmt.Sprintf("tenant-%d", tenant)
		home := taskShard(shards, name, 0, acceptAll, acceptAll)
		for id := int64(1); id < 100; id++ {
			if got := taskShard(shards, name, id, acceptAll, acceptAll); got != home {
				t.Fatalf("%s task %d on shard %d, tenant home is %d — tenant affinity broken", name, id, got, home)
			}
		}
	}
	homes := map[int]bool{}
	for tenant := 0; tenant < 50; tenant++ {
		homes[taskShard(shards, fmt.Sprintf("tenant-%d", tenant), 0, acceptAll, acceptAll)] = true
	}
	if len(homes) < 2 {
		t.Fatalf("50 tenants all hashed to %d shard(s) of 4", len(homes))
	}
	// Tenantless tasks spread by id.
	spread := map[int]bool{}
	for id := int64(0); id < 1000; id++ {
		spread[taskShard(shards, "", id, acceptAll, acceptAll)] = true
	}
	if len(spread) != shards {
		t.Fatalf("tenantless ids reached %d shards of 4", len(spread))
	}
}

// TestShardPlacementDeterministic: placement is a pure function of (shard
// count, veto, key) — the same question always gets the same answer, which
// is what lets seeded scenarios reproduce cross-process.
func TestShardPlacementDeterministic(t *testing.T) {
	for i := int64(0); i < 2000; i++ {
		if taskShard(6, "", i, refuse(1), acceptAll) != taskShard(6, "", i, refuse(1), acceptAll) {
			t.Fatalf("identical vetoes disagree on id %d", i)
		}
	}
	counts := make([]int, 6)
	up := refuse(1)
	if managerShard("mgr-b0-7", counts, up) != managerShard("mgr-b0-7", counts, up) {
		t.Fatal("identical calls disagree on string key placement")
	}
}

// TestShardPlacementBoundedManagers: sequential manager placement with live
// counts leaves no shard manager-less once managers ≥ shards, and no shard
// hoards more than the ceil-share bound; a down shard gets none.
func TestShardPlacementBoundedManagers(t *testing.T) {
	const shards, managers = 4, 8
	for _, down := range []int{-1, 2} {
		up := refuse(down)
		alive := shards
		if down >= 0 {
			alive--
		}
		counts := make([]int, shards)
		for i := 0; i < managers; i++ {
			s := managerShard(fmt.Sprintf("mgr-b%d-%d", i, i), counts, up)
			counts[s]++
		}
		for s, n := range counts {
			if s == down {
				if n != 0 {
					t.Fatalf("down shard %d got %d managers (counts %v)", s, n, counts)
				}
				continue
			}
			if n == 0 {
				t.Fatalf("shard %d got no managers (counts %v) — its queued tasks could never drain", s, counts)
			}
			if n > (managers+alive)/alive {
				t.Fatalf("shard %d got %d managers, above the bounded-load cap (counts %v)", s, n, counts)
			}
		}
	}
}

// TestShardPlacementVeto: a preferred shard without capacity spills to a
// different shard that has some; when no live shard has capacity, placement
// falls back to the best-ranked live shard rather than failing or choosing a
// dead one; each shard is asked at most once, best-ranked first, so a clean
// placement asks exactly once.
func TestShardPlacementVeto(t *testing.T) {
	const shards = 3
	none := func(int) bool { return false }
	preferred := taskShard(shards, "hot-tenant", 0, acceptAll, acceptAll)
	if got := taskShard(shards, "hot-tenant", 0, acceptAll, refuse(preferred)); got == preferred {
		t.Fatalf("veto of shard %d ignored", preferred)
	}
	if all := taskShard(shards, "hot-tenant", 0, acceptAll, none); all != preferred {
		t.Fatalf("all-veto placement = %d, want preferred %d", all, preferred)
	}
	if all := taskShard(shards, "hot-tenant", 0, none, none); all != preferred {
		t.Fatalf("placement with every shard down = %d, want preferred %d", all, preferred)
	}
	// The key's best shard is dead and no live shard has managers yet: the
	// task waits on the best-ranked live shard, never on the dead one.
	for id := int64(0); id < 1000; id++ {
		dead := taskShard(shards, "", id, acceptAll, acceptAll)
		want := taskShard(shards, "", id, refuse(dead), acceptAll)
		if got := taskShard(shards, "", id, refuse(dead), none); got != want {
			t.Fatalf("id %d: shard %d dead, no capacity anywhere: placed on %d, want best-ranked live %d", id, dead, got, want)
		}
	}
	asked := map[int]int{}
	taskShard(shards, "hot-tenant", 0, acceptAll, func(s int) bool { asked[s]++; return true })
	if len(asked) != 1 || asked[preferred] != 1 {
		t.Fatalf("clean placement asked %v, want only preferred shard %d once", asked, preferred)
	}
	for _, n := range []int{3, 4, 70} {
		for id := int64(0); id < 100; id++ {
			askedUp, askedOK := map[int]int{}, map[int]int{}
			taskShard(n, "", id,
				func(s int) bool { askedUp[s]++; return true },
				func(s int) bool { askedOK[s]++; return false })
			for what, asked := range map[string]map[int]int{"up": askedUp, "ok": askedOK} {
				if len(asked) != n {
					t.Fatalf("%d shards, id %d: all-veto walk asked %s of %d distinct shards", n, id, what, len(asked))
				}
				for s, k := range asked {
					if k != 1 {
						t.Fatalf("%d shards, id %d: shard %d asked %s %d times", n, id, s, what, k)
					}
				}
			}
		}
	}

	// The spill walk asks every other shard before it gives up: with the
	// preferred shard and one other vetoed (two of three, two of four), or
	// all but one (three of four), it lands on a shard that accepts.
	for _, shards := range []int{3, 4} {
		for id := int64(0); id < 1000; id++ {
			preferred := taskShard(shards, "", id, acceptAll, acceptAll)
			for other := 0; other < shards; other++ {
				if other == preferred {
					continue
				}
				if got := taskShard(shards, "", id, acceptAll, refuse(preferred, other)); got == preferred || got == other {
					t.Fatalf("%d shards, id %d: shards %d and %d vetoed, placed on %d", shards, id, preferred, other, got)
				}
				if shards == 4 {
					if got := taskShard(shards, "", id, acceptAll, func(s int) bool { return s == other }); got != other {
						t.Fatalf("4 shards, id %d: only shard %d accepts, placed on %d", id, other, got)
					}
				}
			}
		}
	}
	// Past 64 shards the walk still reaches the one that accepts.
	for id := int64(0); id < 100; id++ {
		for _, only := range []int{3, 66} {
			if got := taskShard(70, "", id, acceptAll, func(s int) bool { return s == only }); got != only {
				t.Fatalf("70 shards, id %d: only shard %d accepts, placed on %d", id, only, got)
			}
		}
	}
}

// TestShardPlacementSoleSurvivor: with one of two shards down, tasks and
// managers land on the survivor; with both down, manager placement still
// answers (the best-ranked shard) rather than failing.
func TestShardPlacementSoleSurvivor(t *testing.T) {
	if got := taskShard(2, "any", 42, refuse(0), acceptAll); got != 1 {
		t.Fatalf("placement on sole survivor = %d, want 1", got)
	}
	if got := managerShard("mgr-b0-0", []int{0, 0}, refuse(0)); got != 1 {
		t.Fatalf("manager placement on sole survivor = %d, want 1", got)
	}
	want := managerShard("mgr-b0-0", []int{0, 0}, acceptAll)
	if got := managerShard("mgr-b0-0", []int{0, 0}, refuse(0, 1)); got != want {
		t.Fatalf("manager placement with every shard down = %d, want best-ranked %d", got, want)
	}
	if got := taskShard(1, "any", 42, refuse(0), acceptAll); got != 0 {
		t.Fatalf("one-shard placement = %d, want 0", got)
	}
}
