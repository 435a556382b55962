package htex

// This file is the routing layer of the sharded control plane: the HTEX
// client runs N interchange shards as one logical executor, and the two
// functions below decide — deterministically — which shard every manager and
// every task lands on. Placement is rendezvous hashing: each shard scores a
// key as mix64(key ^ mix64(shard+1)), and the key goes to the best-scoring
// shard the caller accepts. Placement holds no state; a dead shard is just
// one the caller refuses, so shard death moves only the dead shard's keys
// (bounded key movement), restoring it moves exactly those back, and a
// tenant's tasks stay together on one shard (tenant affinity). The shard
// core itself — queues, heartbeats, NACK resync — is the unchanged
// Interchange; everything cross-shard lives here and in the client's
// submit/reconcile paths.

// taskShard maps one task to one of n shards, tenant-affine: a task carrying
// a tenant follows its tenant's hash so a tenant's whole queue lands on one
// shard (its DRR share is then enforced by that shard's fair queue exactly
// as in the single-broker design); tenantless tasks spread by wire id.
//
// up is the liveness veto and ok the capacity one (no registered managers):
// shards are asked best-ranked first, each at most once, and the first up
// shard ok accepts wins, so a temporarily capacity-less shard spills to the
// key's next-ranked shard instead of wedging its tasks. If no up shard has
// capacity, the best-ranked up shard is returned — placement never fails
// and never picks a dead shard while one lives, it only waits.
func taskShard(n int, tenant string, id int64, up, ok func(shard int) bool) int {
	key := mix64(uint64(id))
	if tenant != "" {
		key = hashString(tenant)
	}
	return rendezvous(n, key, up, ok)
}

// managerShard places a manager onto one of len(counts) shards by rendezvous
// hash with a bounded-load guarantee: a shard that is not up, or already
// holds a full share of managers (ceil((total+1)/up) over the up shards),
// is passed over for the id's next-ranked shard. Pure hashing can starve a
// shard of managers at small manager counts, and a manager-less shard
// cannot drain the tasks hashed onto it; the bound keeps every shard's
// capacity within one manager of even while preserving hash stability for
// the unconstrained majority. counts[i] is shard i's manager count.
func managerShard(id string, counts []int, up func(shard int) bool) int {
	total, alive := 0, 0
	for s, c := range counts {
		if up(s) {
			total += c
			alive++
		}
	}
	limit := (total + alive) / max(alive, 1)
	return rendezvous(len(counts), hashString(id), up, func(s int) bool { return counts[s] < limit })
}

// rendezvous returns the best-ranked of n shards for key that is up and ok
// accepts, asking each shard at most once in rank order. When ok refuses
// every up shard it returns the best-ranked up shard, and the best-ranked
// shard of all when none is up.
func rendezvous(n int, key uint64, up, ok func(shard int) bool) int {
	best := nextRanked(n, key, -1)
	fallback := best
	firstUp := true
	for s := best; s >= 0; s = nextRanked(n, key, s) {
		if !up(s) {
			continue
		}
		if ok(s) {
			return s
		}
		if firstUp {
			fallback, firstUp = s, false
		}
	}
	return fallback
}

// nextRanked returns the shard ranked just after prev for key (prev < 0
// asks for the best), or -1 when prev ranks last. Shards rank by score,
// highest first; scores never tie, since mix64 and XOR with the key are
// both bijections. Recomputing the scores per step keeps the walk
// allocation-free, and the common case stops at the first.
func nextRanked(n int, key uint64, prev int) int {
	var prevScore uint64
	if prev >= 0 {
		prevScore = mix64(key ^ mix64(uint64(prev)+1))
	}
	next, nextScore := -1, uint64(0)
	for s := 0; s < n; s++ {
		score := mix64(key ^ mix64(uint64(s)+1))
		if prev >= 0 && score >= prevScore {
			continue // ranked at or before prev
		}
		if next < 0 || score > nextScore {
			next, nextScore = s, score
		}
	}
	return next
}

// mix64 is the SplitMix64 finalizer: full-avalanche mixing so sequential
// shard indices and wire ids score uniformly.
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
