package fair

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestSingleTenantFIFO pins the compatibility contract: one tenant, no
// comparator — strict FIFO, exactly the queue the DFK's routing FIFO was.
func TestSingleTenantFIFO(t *testing.T) {
	q := NewQueue[int](nil)
	for i := 0; i < 100; i++ {
		q.Push(DefaultTenant, 0, i)
	}
	var got []int
	for len(got) < 100 {
		batch, ok := q.Take(7)
		if !ok {
			t.Fatal("queue closed unexpectedly")
		}
		got = append(got, batch...)
		q.PutBatch(batch)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("position %d: got %d, want %d (FIFO violated)", i, v, i)
		}
	}
}

// TestDRRShares pins the deterministic weighted shares: tenants weighted 2:1
// with deep backlogs drain 2:1 in every window.
func TestDRRShares(t *testing.T) {
	q := NewQueue[string](nil)
	for i := 0; i < 300; i++ {
		q.Push("a", 2, "a")
		q.Push("b", 1, "b")
	}
	batch := q.TryTake(30)
	counts := map[string]int{}
	for _, v := range batch {
		counts[v]++
	}
	q.PutBatch(batch)
	if counts["a"] != 20 || counts["b"] != 10 {
		t.Fatalf("30-entry DRR window: got a=%d b=%d, want a=20 b=10", counts["a"], counts["b"])
	}
}

// TestDRRSharesSmallTakes pins that weights hold even when the consumer
// drains one entry at a time — the broker shape, where dispatch size is one
// free capacity slot. A quantum interrupted by a full batch must resume on
// the next take, not forfeit, or shares collapse toward round robin.
func TestDRRSharesSmallTakes(t *testing.T) {
	for _, takeSize := range []int{1, 2, 3} {
		q := NewQueue[string](nil)
		for i := 0; i < 400; i++ {
			q.Push("a", 10, "a")
			q.Push("b", 1, "b")
		}
		counts := map[string]int{}
		for drained := 0; drained < 110; {
			n := takeSize
			if rem := 110 - drained; n > rem {
				n = rem
			}
			batch := q.TryTake(n)
			for _, v := range batch {
				counts[v]++
			}
			drained += len(batch)
			q.PutBatch(batch)
		}
		if counts["a"] != 100 || counts["b"] != 10 {
			t.Fatalf("takeSize %d: 110 entries split a=%d b=%d, want 100/10",
				takeSize, counts["a"], counts["b"])
		}
	}
}

// TestTenantStateReclaimed: a drained tenant leaves no residue in the
// tenant table — high-cardinality one-shot tenants must not accumulate.
func TestTenantStateReclaimed(t *testing.T) {
	q := NewQueue[int](nil)
	for i := 0; i < 100; i++ {
		q.Push(fmt.Sprintf("tenant-%d", i), 2, i)
	}
	for {
		batch := q.TryTake(8)
		if len(batch) == 0 {
			break
		}
		q.PutBatch(batch)
	}
	q.mu.Lock()
	residual := len(q.tenants)
	q.mu.Unlock()
	if residual != 0 {
		t.Fatalf("%d tenant flows retained after drain, want 0", residual)
	}

	a := NewAdmission(1, nil, Block)
	for i := 0; i < 100; i++ {
		tenant := fmt.Sprintf("tenant-%d", i)
		if _, err := a.Admit(context.Background(), tenant); err != nil {
			t.Fatal(err)
		}
		a.Release(tenant)
	}
	a.mu.Lock()
	gates := len(a.tenants)
	a.mu.Unlock()
	if gates != 0 {
		t.Fatalf("%d admission gates retained after release, want 0", gates)
	}
}

// TestDRRInterleaves verifies a late-arriving light tenant is served on the
// next round rather than behind the heavy tenant's whole backlog.
func TestDRRInterleaves(t *testing.T) {
	q := NewQueue[string](nil)
	for i := 0; i < 1000; i++ {
		q.Push("heavy", 1, "heavy")
	}
	q.Push("light", 1, "light")
	batch := q.TryTake(4)
	defer q.PutBatch(batch)
	found := false
	for _, v := range batch {
		if v == "light" {
			found = true
		}
	}
	if !found {
		t.Fatalf("light tenant not served within the first 4 slots: %v", batch)
	}
}

type prioItem struct {
	prio int
	seq  int
}

func prioLess(a, b prioItem) bool {
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	return a.seq < b.seq
}

// TestIntraTenantPriority checks the comparator path: within one tenant,
// higher priority pops first and equal priorities keep arrival order.
func TestIntraTenantPriority(t *testing.T) {
	q := NewQueue[prioItem](prioLess)
	q.Push("t", 0, prioItem{prio: 0, seq: 1})
	q.Push("t", 0, prioItem{prio: 5, seq: 2})
	q.Push("t", 0, prioItem{prio: 0, seq: 3})
	q.Push("t", 0, prioItem{prio: 5, seq: 4})
	batch := q.TryTake(10)
	defer q.PutBatch(batch)
	want := []prioItem{{5, 2}, {5, 4}, {0, 1}, {0, 3}}
	if len(batch) != len(want) {
		t.Fatalf("got %d entries, want %d", len(batch), len(want))
	}
	for i := range want {
		if batch[i] != want[i] {
			t.Fatalf("position %d: got %+v, want %+v", i, batch[i], want[i])
		}
	}
}

// TestPriorityDoesNotCrossTenants: a tenant's urgent task jumps its own
// sub-queue only; the other tenant still gets its round share.
func TestPriorityDoesNotCrossTenants(t *testing.T) {
	q := NewQueue[prioItem](prioLess)
	for i := 0; i < 10; i++ {
		q.Push("noisy", 1, prioItem{prio: 100, seq: i})
	}
	q.Push("quiet", 1, prioItem{prio: 0, seq: 99})
	batch := q.TryTake(2)
	defer q.PutBatch(batch)
	seen := map[int]bool{}
	for _, it := range batch {
		seen[it.prio] = true
	}
	if !seen[0] {
		t.Fatalf("quiet tenant starved by another tenant's priorities: %+v", batch)
	}
}

// TestFilter removes entries and keeps DRR bookkeeping consistent.
func TestFilter(t *testing.T) {
	q := NewQueue[int](nil)
	for i := 0; i < 10; i++ {
		q.Push("a", 0, i)
		q.Push("b", 0, 100+i)
	}
	q.Filter(func(v int) bool { return v%2 == 0 })
	if got := q.Len(); got != 10 {
		t.Fatalf("Len after filter = %d, want 10", got)
	}
	per := q.PerTenant()
	if per["a"] != 5 || per["b"] != 5 {
		t.Fatalf("per-tenant after filter = %v, want a=5 b=5", per)
	}
	q.Filter(func(v int) bool { return v >= 100 })
	if got := q.Len(); got != 5 {
		t.Fatalf("Len after second filter = %d, want 5", got)
	}
	batch := q.TryTake(10)
	defer q.PutBatch(batch)
	for _, v := range batch {
		if v < 100 || v%2 != 0 {
			t.Fatalf("unexpected survivor %d", v)
		}
	}
}

// TestCloseDrains: Take returns queued items after Close, then (nil, false).
func TestCloseDrains(t *testing.T) {
	q := NewQueue[int](nil)
	q.Push("a", 0, 1)
	q.Close()
	batch, ok := q.Take(10)
	if !ok || len(batch) != 1 {
		t.Fatalf("Take after close = (%v, %v), want one item", batch, ok)
	}
	q.PutBatch(batch)
	if _, ok := q.Take(10); ok {
		t.Fatal("drained closed queue still returning items")
	}
}

// TestBlockingTakeWakes: a parked Take wakes on Push.
func TestBlockingTakeWakes(t *testing.T) {
	q := NewQueue[int](nil)
	done := make(chan int, 1)
	go func() {
		batch, _ := q.Take(1)
		done <- batch[0]
		q.PutBatch(batch)
	}()
	time.Sleep(10 * time.Millisecond)
	q.Push("a", 0, 42)
	select {
	case v := <-done:
		if v != 42 {
			t.Fatalf("got %d, want 42", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked Take never woke")
	}
}

// TestQueueConcurrent hammers Push/Take/PerTenant from many goroutines under
// -race; every pushed item must come out exactly once.
func TestQueueConcurrent(t *testing.T) {
	q := NewQueue[int](nil)
	const producers, perProducer = 8, 500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", p%3)
			for i := 0; i < perProducer; i++ {
				q.Push(tenant, p%3+1, p*perProducer+i)
			}
		}(p)
	}
	go func() {
		wg.Wait()
		q.Close()
	}()
	seen := make(map[int]bool, producers*perProducer)
	var consumed int
	for {
		if consumed%100 == 0 {
			_ = q.PerTenant()
			_ = q.Len()
		}
		batch, ok := q.Take(64)
		if !ok {
			break
		}
		for _, v := range batch {
			if seen[v] {
				t.Fatalf("item %d delivered twice", v)
			}
			seen[v] = true
		}
		consumed += len(batch)
		q.PutBatch(batch)
	}
	if consumed != producers*perProducer {
		t.Fatalf("consumed %d items, want %d", consumed, producers*perProducer)
	}
}

// TestAdmissionShed: at quota, Shed returns ErrOverloaded without blocking;
// a release reopens admission.
func TestAdmissionShed(t *testing.T) {
	a := NewAdmission(2, nil, Shed)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := a.Admit(ctx, "t"); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	if _, err := a.Admit(ctx, "t"); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("admit over quota = %v, want ErrOverloaded", err)
	}
	if _, err := a.Admit(ctx, "other"); err != nil {
		t.Fatalf("other tenant sheds too: %v", err)
	}
	a.Release("t")
	if _, err := a.Admit(ctx, "t"); err != nil {
		t.Fatalf("admit after release: %v", err)
	}
	if got := a.Live("t"); got != 2 {
		t.Fatalf("Live = %d, want 2", got)
	}
}

// TestAdmissionBlockRelease: a blocked Admit wakes when quota frees and
// reports a non-zero wait.
func TestAdmissionBlockRelease(t *testing.T) {
	a := NewAdmission(1, nil, Block)
	ctx := context.Background()
	if _, err := a.Admit(ctx, "t"); err != nil {
		t.Fatal(err)
	}
	admitted := make(chan time.Duration, 1)
	go func() {
		waited, err := a.Admit(ctx, "t")
		if err != nil {
			t.Error(err)
		}
		admitted <- waited
	}()
	time.Sleep(20 * time.Millisecond)
	select {
	case <-admitted:
		t.Fatal("Admit returned before quota freed")
	default:
	}
	a.Release("t")
	select {
	case waited := <-admitted:
		if waited <= 0 {
			t.Fatalf("waited = %v, want > 0", waited)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked Admit never woke after Release")
	}
}

// TestAdmissionCtxCancel: canceling the context unblocks a parked Admit with
// the context's error and without consuming quota.
func TestAdmissionCtxCancel(t *testing.T) {
	a := NewAdmission(1, nil, Block)
	if _, err := a.Admit(context.Background(), "t"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := a.Admit(ctx, "t")
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Admit after cancel = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("canceled Admit never returned")
	}
	if got := a.Live("t"); got != 1 {
		t.Fatalf("Live after canceled wait = %d, want 1 (no quota leak)", got)
	}
}

// TestAdmissionQuotaOverrides: per-tenant overrides beat the default, and a
// zero default means unlimited for everyone else.
func TestAdmissionQuotaOverrides(t *testing.T) {
	a := NewAdmission(0, map[string]int{"capped": 1}, Shed)
	ctx := context.Background()
	for i := 0; i < 100; i++ {
		if _, err := a.Admit(ctx, "free"); err != nil {
			t.Fatalf("unlimited tenant refused at %d: %v", i, err)
		}
	}
	if _, err := a.Admit(ctx, "capped"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Admit(ctx, "capped"); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("override quota not enforced: %v", err)
	}
}

// TestAdmissionConcurrent floods a quota from many goroutines under -race:
// live count must never exceed the cap, and everyone eventually admits.
func TestAdmissionConcurrent(t *testing.T) {
	const quota, n = 4, 64
	a := NewAdmission(quota, nil, Block)
	ctx := context.Background()
	var wg sync.WaitGroup
	var mu sync.Mutex
	inFlight, maxInFlight := 0, 0
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := a.Admit(ctx, "t"); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			inFlight++
			if inFlight > maxInFlight {
				maxInFlight = inFlight
			}
			mu.Unlock()
			time.Sleep(time.Millisecond)
			mu.Lock()
			inFlight--
			mu.Unlock()
			a.Release("t")
		}()
	}
	wg.Wait()
	if maxInFlight > quota {
		t.Fatalf("observed %d concurrent admissions, quota %d", maxInFlight, quota)
	}
	if got := a.Live("t"); got != 0 {
		t.Fatalf("Live after drain = %d, want 0", got)
	}
}

// TestAdmissionAllocationFree: a task of the default tenant, or of a named
// tenant that is already live, is admitted, marked ready and retired without
// allocating; a named tenant's gate leaves the table once it goes idle.
func TestAdmissionAllocationFree(t *testing.T) {
	a := NewWindowedAdmission(1<<30, nil, Block, 4)
	ctx := context.Background()
	for _, tenant := range []string{DefaultTenant, "named"} {
		held, _, err := a.AdmitGate(ctx, tenant)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(1000, func() {
			g, _, _ := a.AdmitGate(ctx, tenant)
			g.Ready()
			g.Release(true)
		}); n != 0 {
			t.Fatalf("%q: AdmitGate/Ready/Release: %.2f allocs/op, want 0", tenant, n)
		}
		held.Release(false)
	}
	a.mu.Lock()
	live := len(a.tenants)
	a.mu.Unlock()
	if live != 0 {
		t.Fatalf("%d gates bound after release, want 0", live)
	}
}

// TestAdmissionReleaseWithoutQuota: Release on a tenant without a quota is a
// no-op, even while another task holds the tenant's gate.
func TestAdmissionReleaseWithoutQuota(t *testing.T) {
	a := NewWindowedAdmission(0, nil, Block, 4)
	g, _, err := a.AdmitGate(context.Background(), "t")
	if err != nil {
		t.Fatal(err)
	}
	a.Release("t")
	a.Release("t")
	if n := g.refs.Load(); n != 1 {
		t.Fatalf("refs = %d after quota-less Releases, want 1", n)
	}
	g.Release(false)
	a.mu.Lock()
	live := len(a.tenants)
	a.mu.Unlock()
	if live != 0 {
		t.Fatalf("%d gates bound after release, want 0", live)
	}
}

// TestAdmissionWindowParksUntilHalf: a submitter finding its tenant at the
// window parks — even under Shed, which governs quotas only — and resumes
// only once the ready count falls to half the window; another tenant's
// window is its own.
func TestAdmissionWindowParksUntilHalf(t *testing.T) {
	const w = 8
	a := NewWindowedAdmission(0, nil, Shed, w)
	ctx := context.Background()
	var held []*Gate
	for i := 0; i < w; i++ {
		g, _, err := a.AdmitGate(ctx, "t")
		if err != nil {
			t.Fatal(err)
		}
		g.Ready()
		held = append(held, g)
	}
	if g, _, err := a.AdmitGate(ctx, "other"); err != nil {
		t.Fatalf("other tenant parked behind t's window: %v", err)
	} else {
		g.Release(false)
	}
	admitted := make(chan time.Duration, 1)
	go func() {
		g, waited, err := a.AdmitGate(ctx, "t")
		if err != nil {
			t.Error(err)
		}
		g.Release(false)
		admitted <- waited
	}()
	for held[0].parked.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < w/2-1; i++ {
		held[i].Release(true)
	}
	select {
	case <-admitted:
		t.Fatal("parked submitter resumed above half the window")
	case <-time.After(50 * time.Millisecond):
	}
	held[w/2-1].Release(true)
	select {
	case waited := <-admitted:
		if waited <= 0 {
			t.Fatalf("waited = %v, want > 0", waited)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked submitter not woken at half the window")
	}
	for _, g := range held[w/2:] {
		g.Release(true)
	}
	a.mu.Lock()
	live := len(a.tenants)
	a.mu.Unlock()
	if live != 0 {
		t.Fatalf("%d gates bound after release, want 0", live)
	}
}

// TestQueueAllocationFree: a queue that drains to empty after every entry —
// one task at a time — allocates nothing per entry once warm, for the
// default tenant and for a named one. Each drain retires the tenant's flow
// and the next push takes it back from the spares; each batch handed back
// is the next drain's.
func TestQueueAllocationFree(t *testing.T) {
	for _, tenant := range []string{DefaultTenant, "acme"} {
		q := NewQueue[int](nil)
		cycle := func() {
			q.Push(tenant, 2, 7)
			batch := q.TryTake(4)
			if len(batch) != 1 || batch[0] != 7 {
				t.Fatalf("tenant %q: drained %v, want [7]", tenant, batch)
			}
			q.PutBatch(batch)
		}
		if n := testing.AllocsPerRun(1000, cycle); n != 0 {
			t.Fatalf("tenant %q: %.2f allocations per push-take-put cycle, want 0", tenant, n)
		}
		if len(q.tenants) != 0 {
			t.Fatalf("tenant %q: %d flows left in the tenant table", tenant, len(q.tenants))
		}
	}
}

// TestQueueReclaimsOneShotTenants: 10 000 tenants that each queue one task
// and never return leave no flow in the tenant table or the rotation, the
// spare list never outgrows its bound, and a burst that grew a tenant's
// array past the cap does not keep that array as a spare. A spare flow
// carries nothing of its last tenant into the next one's DRR state.
func TestQueueReclaimsOneShotTenants(t *testing.T) {
	q := NewQueue[int](nil)
	const tenants, perRound = 10_000, 8 // more flows empty per drain than spares are kept
	for i := 0; i < tenants; i += perRound {
		for j := i; j < i+perRound; j++ {
			q.Push(fmt.Sprintf("user-%d", j), 1+j%5, j)
		}
		for q.Len() > 0 {
			q.PutBatch(q.TryTake(3))
		}
		if len(q.spare) > maxSpareFlows || len(q.free) > maxFreeBatches {
			t.Fatalf("after tenant %d: %d spare flows, %d free batches; bounds %d, %d",
				i+perRound, len(q.spare), len(q.free), maxSpareFlows, maxFreeBatches)
		}
	}
	if len(q.tenants) != 0 || len(q.ring) != 0 {
		t.Fatalf("%d tenants, %d flows in rotation after every one-shot tenant drained", len(q.tenants), len(q.ring))
	}
	if len(q.spare) != maxSpareFlows {
		t.Fatalf("%d spare flows, want the bound %d", len(q.spare), maxSpareFlows)
	}

	// A burst past the cap: the flow's array goes with it.
	for k := 0; k <= maxSpareItems; k++ {
		q.Push("burst", 0, k)
	}
	for q.Len() > 0 {
		q.PutBatch(q.TryTake(batchCap))
	}
	for _, f := range q.spare {
		if cap(f.items) > maxSpareItems || len(f.items) != 0 || f.tenant != "" || f.deficit != 0 || f.weight != 1 {
			t.Fatalf("spare flow keeps state: cap %d, len %d, tenant %q, deficit %d, weight %d",
				cap(f.items), len(f.items), f.tenant, f.deficit, f.weight)
		}
	}

	// A new tenant on a spare starts at the default weight, not its
	// predecessor's.
	q.Push("fresh", 0, 1)
	if f := q.tenants["fresh"]; f.weight != 1 || f.deficit != 0 || f.len() != 1 {
		t.Fatalf("fresh tenant on a spare flow: weight %d, deficit %d, len %d", f.weight, f.deficit, f.len())
	}
}
