package workload

import "testing"

// TestLocalityScenario is the CI locality job's scenario: the full
// data-aware pipeline — cold run, warm cross-process replay over the shared
// cache and staging site, digest-routed repeats, and the stale-holding
// degradation — with the warm-side zeros asserted.
func TestLocalityScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("locality scenario is not -short")
	}
	res, err := RunLocality(LocalityConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	t.Logf("cold: %d executions, %d fetches (%d bytes); warm: %d executions, %d fetches (%d bytes), hit rate %.3f",
		res.ColdExecutions, res.ColdFetches, res.ColdBytesFetched,
		res.WarmExecutions, res.WarmFetches, res.WarmBytesMoved, res.WarmHitRate)
	t.Logf("routing: %d hits / %d misses, %d to holder / %d elsewhere; stale rerun ok=%v; %v",
		res.RouteHits, res.RouteMisses, res.RoutedToHolder, res.RoutedElsewhere, res.StaleRerunOK, res.Elapsed)
}

// TestShardFailoverWithLocalityPolicy is the acceptance cross: the
// kill-one-shard failover contract must hold unchanged when the DFK routes
// through the digest-aware locality policy.
func TestShardFailoverWithLocalityPolicy(t *testing.T) {
	if testing.Short() {
		t.Skip("shard failover scenario is not -short")
	}
	res, err := RunShardFailover(ShardFailoverConfig{Seed: 11, SchedulerPolicy: "locality"})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	t.Logf("victim held %d, retried %d, shards %d/%d, health %q, %v",
		res.VictimHeld, res.Retried, res.ShardsAlive, res.ShardsTotal, res.Health, res.Elapsed)
}
