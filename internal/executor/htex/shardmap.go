package htex

import (
	"sort"
	"sync"
)

// This file is the routing layer of the sharded control plane: the HTEX
// client runs N interchange shards as one logical executor, and ShardMap
// decides — deterministically — which shard every manager and every task
// lands on. Placement is consistent hashing over a virtual-node ring, so
// shard death moves only the dead shard's keys (bounded key movement) and a
// tenant's tasks stay together on one shard (tenant affinity) as long as the
// membership holds. The shard core itself — queues, heartbeats, NACK resync —
// is the unchanged Interchange; everything cross-shard lives here and in the
// client's fan-out/reconcile paths.

// shardVNodes is the virtual-node count per shard. 64 points per shard keeps
// the ring's load spread within a few percent of uniform at the shard counts
// this executor targets (single digits to low tens) while membership changes
// stay O(vnodes·shards·log) — rebuilt only on shard death, never per task.
const shardVNodes = 64

// ringEntry is one virtual node: a point on the hash circle owned by a shard.
type ringEntry struct {
	point uint64
	shard int
}

// ShardMap places managers and tasks onto interchange shards by consistent
// hash. It is safe for concurrent use: placement takes a read lock, and the
// single-shard deployment (the default) short-circuits before hashing so the
// unsharded hot path stays allocation- and hash-free.
type ShardMap struct {
	mu     sync.RWMutex
	total  int
	alive  []bool
	aliveN int
	ring   []ringEntry // sorted vnode points over the alive shards
}

// NewShardMap builds a map over shards 0..n-1, all alive.
func NewShardMap(n int) *ShardMap {
	if n < 1 {
		n = 1
	}
	m := &ShardMap{total: n, alive: make([]bool, n), aliveN: n}
	for i := range m.alive {
		m.alive[i] = true
	}
	m.rebuildLocked()
	return m
}

// rebuildLocked regenerates the vnode ring from the alive set. Points are a
// pure function of (shard, replica), so the ring after any membership
// history equals the ring built fresh from the same alive set — placement
// depends on membership, not on the order shards died.
func (m *ShardMap) rebuildLocked() {
	m.ring = m.ring[:0]
	for s := 0; s < m.total; s++ {
		if !m.alive[s] {
			continue
		}
		for r := 0; r < shardVNodes; r++ {
			// Double-mixed so the vnode domain is disjoint from task-id
			// hashes: a single mix64(s<<32|r) would make shard 0's points
			// exactly mix64(0..63), the same values tenantless task ids
			// 0..63 hash to, pinning every early task onto shard 0.
			m.ring = append(m.ring, ringEntry{
				point: mix64(mix64(uint64(s)+1) ^ uint64(r)),
				shard: s,
			})
		}
	}
	sort.Slice(m.ring, func(i, j int) bool { return m.ring[i].point < m.ring[j].point })
}

// Total reports the configured shard count.
func (m *ShardMap) Total() int { return m.total }

// AliveCount reports how many shards currently accept placement.
func (m *ShardMap) AliveCount() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.aliveN
}

// Remove marks shard i dead and rebuilds the ring: only keys whose vnode arc
// belonged to i move (to the arcs' successors); every other placement is
// unchanged. Returns false if i was already dead or out of range. The last
// alive shard cannot be removed — a map with no shards places nothing.
func (m *ShardMap) Remove(i int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if i < 0 || i >= m.total || !m.alive[i] || m.aliveN == 1 {
		return false
	}
	m.alive[i] = false
	m.aliveN--
	m.rebuildLocked()
	return true
}

// Restore marks shard i alive again (tests; a future shard-respawn path).
// The inverse movement property holds: only keys on i's arcs move back.
func (m *ShardMap) Restore(i int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if i < 0 || i >= m.total || m.alive[i] {
		return false
	}
	m.alive[i] = true
	m.aliveN++
	m.rebuildLocked()
	return true
}

// locate finds the ring successor of point h. Callers hold m.mu (read).
func (m *ShardMap) locateLocked(h uint64) int {
	i := sort.Search(len(m.ring), func(i int) bool { return m.ring[i].point >= h })
	if i == len(m.ring) {
		i = 0
	}
	return i
}

// PlaceTaskFunc maps one task to a shard, tenant-affine: a task carrying a
// tenant follows its tenant's hash so a tenant's whole queue lands on one
// shard (its DRR share is then enforced by that shard's fair queue exactly
// as in the single-broker design); tenantless tasks spread by wire id. The
// single-alive-shard fast path does no hashing — the default deployment
// routes in a few nanoseconds with zero allocations.
//
// ok is a capacity veto: when it rejects the hash-preferred shard (dead, or
// no registered managers), the walk continues around the ring to the first
// other shard ok accepts, asking each shard once, so a temporarily
// capacity-less shard spills to its ring successor instead of wedging its
// tasks. If no shard passes, the preferred shard is returned — placement
// never fails, it only waits.
func (m *ShardMap) PlaceTaskFunc(tenant string, id int64, ok func(shard int) bool) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.aliveN == 1 {
		return m.ring[0].shard
	}
	var h uint64
	if tenant != "" {
		h = hashString(tenant)
	} else {
		h = mix64(uint64(id))
	}
	start := m.locateLocked(h)
	preferred := m.ring[start].shard
	if ok(preferred) {
		return preferred
	}
	// asked has a bit per vetoed shard below 64; vetoed counts the distinct
	// shards asked, so the walk stops once every alive shard has refused. A
	// shard from 64 up is not tracked: it is asked again at each of its
	// vnodes, and the walk ends at the ring's end instead.
	var asked uint64
	vetoed := 1
	for i := 1; i < len(m.ring) && vetoed < m.aliveN; i++ {
		s := m.ring[(start+i)%len(m.ring)].shard
		tracked := s < 64
		if s == preferred || tracked && asked&(1<<s) != 0 {
			continue
		}
		if ok(s) {
			return s
		}
		if tracked {
			asked |= 1 << s
			vetoed++
		}
	}
	return preferred
}

// PlaceManagerBounded places a manager by consistent hash with a bounded-load
// guarantee: if the hash-preferred shard already holds a full share of
// managers (ceil((total+1)/alive)), the walk continues to the next shard on
// the ring with headroom. Pure hashing can starve a shard of managers at
// small manager counts, and a manager-less shard cannot drain the tasks
// hashed onto it; the bound keeps every shard's capacity within one manager
// of even while preserving hash stability for the unconstrained majority.
// counts[i] is the current manager count of shard i (dead shards ignored).
func (m *ShardMap) PlaceManagerBounded(id string, counts []int) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.aliveN == 1 {
		return m.ring[0].shard
	}
	total := 0
	for i, a := range m.alive {
		if a && i < len(counts) {
			total += counts[i]
		}
	}
	limit := (total + m.aliveN) / m.aliveN // ceil((total+1)/alive)
	start := m.locateLocked(hashString(id))
	first := -1
	for i := 0; i < len(m.ring); i++ {
		s := m.ring[(start+i)%len(m.ring)].shard
		if first == -1 {
			first = s
		}
		if s < len(counts) && counts[s] >= limit {
			continue
		}
		return s
	}
	return first
}

// MergeTenantDepths merges per-shard tenant backlog maps into the one view
// the scheduler layer sees: the sharded executor reports exactly what a
// single interchange holding the union of the queues would report. Nil maps
// contribute nothing; a nil result means every shard was empty.
func MergeTenantDepths(perShard ...map[string]int) map[string]int {
	var out map[string]int
	for _, sm := range perShard {
		for tenant, n := range sm {
			if out == nil {
				out = make(map[string]int, len(sm))
			}
			out[tenant] += n
		}
	}
	return out
}

// mix64 is the SplitMix64 finalizer: full-avalanche mixing so sequential
// shard/replica indices and wire ids land uniformly on the ring.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// hashString is FNV-1a 64 over the key, finalized through mix64 — cheap,
// allocation-free, and stable across processes (placement must agree between
// runs for seeded scenarios to reproduce).
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return mix64(h)
}
