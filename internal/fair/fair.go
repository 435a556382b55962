// Package fair implements the multi-tenant fairness and admission layer the
// DataFlowKernel and the HTEX interchange share. The paper's DFK (§3.5, §4.2)
// assumes one cooperative program; a service multiplexing many submitters
// needs two more mechanisms, both provided here:
//
//   - Queue, a deficit-round-robin weighted fair queue (Shreedhar & Varghese,
//     SIGCOMM 1995): each tenant owns a sub-queue, and consumers drain tasks
//     in proportion to tenant weights instead of global arrival order, so one
//     hot submitter cannot head-of-line-block everyone else. A single-tenant
//     workload degenerates to the plain FIFO (or priority order) it replaced —
//     the default behavior is identical to the pre-tenant pipeline.
//
//   - Admission, per-tenant bounds at the submission boundary: an optional
//     quota on live tasks with a configurable overload policy (block the
//     submitter, context-aware, until completions free quota, or shed
//     immediately with ErrOverloaded), and a window of ready tasks at which
//     the submitter always parks. This is what keeps memory bounded under
//     overload — the fair queue shapes *order*, admission shapes *volume*.
//
// Both types are safe for concurrent use. Neither blocks inside executor
// completion callbacks: Queue pushes never block (the queues stay unbounded;
// boundedness comes from admission at the submission boundary, where blocking
// is safe), and Admission.Release never blocks.
//
// The queues (Queue and MPSC) allocate nothing per task
// once warm, even when they drain to empty after every task: a Queue keeps a
// few emptied tenant flows and drained batches for reuse, and MPSC keeps its
// consumer's batches. Every such list has a constant bound, so a stream of
// one-shot tenants still leaves no per-tenant state behind.
package fair

import (
	"context"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultTenant is the tenant id of submissions that never opted into
// multi-tenancy. It participates in DRR like any other tenant, with weight 1.
const DefaultTenant = ""

// ErrOverloaded is returned by Admission.Admit under the shed policy when a
// tenant is at its quota. Callers surface it to the submitter so overload is
// an explicit, typed outcome rather than unbounded queue growth.
var ErrOverloaded = errors.New("fair: tenant at admission quota")

// flow is one tenant's sub-queue plus its DRR state.
type flow[T any] struct {
	tenant  string
	weight  int
	deficit int
	// items[head:] are the queued entries; head advances on pop and the
	// backing array is compacted when the dead prefix outgrows the live
	// half, so pops are O(1) amortized without per-pop copying.
	items []T
	head  int
	// dirty marks that the live segment is not in comparator order: a push
	// landed further from the tail than maxInsertWalk and was appended
	// instead. The flow is re-sorted lazily on the next pop or peek.
	dirty  bool
	active bool
}

// maxInsertWalk bounds how far push walks a newcomer back from the tail
// before giving up and leaving the flow to the lazy sort.
const maxInsertWalk = 64

func (f *flow[T]) len() int { return len(f.items) - f.head }

// push keeps the live segment ordered by insertion: the newcomer goes after
// every entry that does not sort strictly after it, so equal entries keep
// arrival order. Arrivals are nearly ordered (a lane receives wire ids a few
// positions out of order, from the goroutines that route to it), so the walk
// from the tail is a step or two and an in-order workload takes none.
func (f *flow[T]) push(item T, less func(a, b T) bool) {
	n := len(f.items)
	f.items = append(f.items, item)
	if less == nil || f.dirty || n == f.head || !less(item, f.items[n-1]) {
		return // FIFO, awaiting the sort anyway, or in order at the tail
	}
	i := n - 1
	for i > f.head && less(item, f.items[i-1]) {
		if n-i == maxInsertWalk {
			f.dirty = true
			return
		}
		i--
	}
	copy(f.items[i+1:], f.items[i:n])
	f.items[i] = item
}

// ensureSorted restores comparator order on the live segment. SliceStable
// keeps arrival order among equal elements, preserving the FIFO tiebreak
// (push never moves an entry past an equal one, so append order still is
// arrival order among equals).
func (f *flow[T]) ensureSorted(less func(a, b T) bool) {
	if !f.dirty {
		return
	}
	live := f.items[f.head:]
	sort.SliceStable(live, func(i, j int) bool { return less(live[i], live[j]) })
	f.dirty = false
}

func (f *flow[T]) pop(less func(a, b T) bool) T {
	if less != nil {
		f.ensureSorted(less)
	}
	item := f.items[f.head]
	var zero T
	f.items[f.head] = zero // do not pin popped entries
	f.head++
	if f.head > len(f.items)/2 && f.head > 32 {
		n := copy(f.items, f.items[f.head:])
		for i := n; i < len(f.items); i++ {
			f.items[i] = zero
		}
		f.items = f.items[:n]
		f.head = 0
	}
	return item
}

// Queue is a blocking multi-producer queue that drains across tenants by
// deficit round robin: each take visits active tenants in rotation, tops the
// visited tenant's deficit up by its weight, and serves one queued entry per
// deficit unit. Over any backlogged interval, tenant shares converge to the
// weight ratio; a lone tenant receives strict FIFO (or, with a comparator,
// priority) order, byte-for-byte what the single-tenant queues it replaced
// provided. A tenant whose sub-queue empties leaves the rotation and the
// tenant table at once; only its storage is kept, as a spare for the next
// tenant, and only up to a bound.
type Queue[T any] struct {
	// less, when non-nil, orders entries *within* one tenant (e.g. dispatch
	// priority). Fairness across tenants always wins over intra-tenant
	// priority: a tenant's urgent task jumps that tenant's sub-queue, never
	// another tenant's share.
	less func(a, b T) bool

	mu      sync.Mutex
	cond    *sync.Cond
	tenants map[string]*flow[T]
	// ring holds the active flows in round-robin order; cursor is the next
	// flow to visit. New flows join at the tail, per standard DRR.
	ring   []*flow[T]
	cursor int
	size   int
	closed bool

	// spare holds up to maxSpareFlows emptied flows, struct and item array
	// both, for the next tenant to go idle → busy; free holds up to
	// maxFreeBatches drained batches handed back by PutBatch. A queue that
	// drains to empty after every task — one task at a time — therefore
	// allocates nothing per task, and neither list outgrows its bound
	// however many tenants come and go.
	spare []*flow[T]
	free  [][]T
}

const (
	// maxSpareFlows bounds the emptied flows a queue keeps for reuse.
	maxSpareFlows = 4
	// maxSpareItems is the largest item array an emptied flow keeps: a burst
	// that grew a tenant's array past it returns the memory with the flow.
	maxSpareItems = 1024
	// maxFreeBatches bounds the drained batches a queue keeps: one per
	// consumer, and a queue has one or two.
	maxFreeBatches = 4
	// batchCap is a fresh batch's capacity.
	batchCap = 256
)

// NewQueue creates a fair queue. less, when non-nil, orders entries within
// each tenant's sub-queue (smallest first per less); nil means FIFO.
func NewQueue[T any](less func(a, b T) bool) *Queue[T] {
	q := &Queue[T]{less: less, tenants: make(map[string]*flow[T])}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// newFlow returns an empty flow for tenant, a spare one when there is one.
// The caller holds q.mu.
func (q *Queue[T]) newFlow(tenant string) *flow[T] {
	f, ok := popLast(&q.spare)
	if !ok {
		return &flow[T]{tenant: tenant, weight: 1}
	}
	f.tenant = tenant
	return f
}

// popLast removes the last element of *s and returns it, zeroing its slot so
// the list does not pin it; ok is false when *s is empty.
func popLast[E any](s *[]E) (e E, ok bool) {
	n := len(*s)
	if n == 0 {
		return e, false
	}
	e, (*s)[n-1] = (*s)[n-1], e
	*s = (*s)[:n-1]
	return e, true
}

// retire takes an emptied flow out of the tenant table and keeps it, reset,
// as a spare when the spare list has room and its array is not oversized.
// Its deficit goes with it: an idle flow forfeits its credit either way. The
// caller holds q.mu and has already taken f off the ring.
func (q *Queue[T]) retire(f *flow[T]) {
	delete(q.tenants, f.tenant)
	if len(q.spare) == maxSpareFlows || cap(f.items) > maxSpareItems {
		return
	}
	// Every popped or filtered slot is already zero, so the array pins
	// nothing.
	*f = flow[T]{weight: 1, items: f.items[:0]}
	q.spare = append(q.spare, f)
}

// Push enqueues one entry for tenant. weight > 0 updates the tenant's DRR
// weight (latest write wins; submissions carry it per-call); weight <= 0
// leaves the current weight (default 1) untouched. Push never blocks — the
// queue is unbounded by design, because pushes arrive from executor
// completion callbacks where blocking could deadlock the pipeline. Volume is
// bounded upstream by Admission, at the submission boundary.
func (q *Queue[T]) Push(tenant string, weight int, item T) {
	q.mu.Lock()
	f, ok := q.tenants[tenant]
	if !ok {
		f = q.newFlow(tenant)
		q.tenants[tenant] = f
	}
	if weight > 0 {
		f.weight = weight
	}
	f.push(item, q.less)
	if !f.active {
		f.active = true
		q.ring = append(q.ring, f)
	}
	q.size++
	q.mu.Unlock()
	q.cond.Signal()
}

// drain implements the DRR service loop; the caller holds q.mu. It pops up
// to max entries into a free batch, or a fresh one when none is free.
func (q *Queue[T]) drain(max int) []T {
	batch, ok := popLast(&q.free)
	if !ok {
		batch = make([]T, 0, batchCap)
	}
	for len(batch) < max && q.size > 0 {
		f := q.ring[q.cursor]
		if f.deficit <= 0 {
			f.deficit += f.weight
		}
		for f.deficit > 0 && f.len() > 0 && len(batch) < max {
			batch = append(batch, f.pop(q.less))
			f.deficit--
			q.size--
		}
		switch {
		case f.len() == 0:
			// An idle flow leaves the rotation (and the tenant table: a
			// one-shot tenant must not leak a flow forever — its weight
			// rides every push, so nothing of value is lost) and forfeits
			// leftover deficit (standard DRR: credit must not accumulate
			// while idle).
			copy(q.ring[q.cursor:], q.ring[q.cursor+1:])
			q.ring[len(q.ring)-1] = nil
			q.ring = q.ring[:len(q.ring)-1]
			q.retire(f)
		case f.deficit <= 0:
			// Quantum spent: the next flow gets the next visit.
			q.cursor++
		default:
			// The batch filled mid-quantum. Keep the cursor on this flow so
			// its remaining deficit is served by the next drain — advancing
			// here would forfeit the turn every time max < weight, and
			// small takes (a broker dispatching one capacity slot at a
			// time) would collapse weighted shares toward round-robin.
		}
		if len(q.ring) == 0 {
			q.cursor = 0
		} else {
			q.cursor %= len(q.ring)
		}
	}
	return batch
}

// Take blocks until at least one entry is queued (returning up to max in DRR
// order) or the queue is closed and drained (returning nil, false). The
// returned slice is the queue's scratch; hand it back with PutBatch once the
// entries have been consumed.
func (q *Queue[T]) Take(max int) ([]T, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.size == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.size == 0 {
		return nil, false
	}
	return q.drain(max), true
}

// TryTake drains up to max entries without blocking; it returns nil when the
// queue is empty. Same batch contract as Take.
func (q *Queue[T]) TryTake(max int) []T {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.size == 0 {
		return nil
	}
	return q.drain(max)
}

// PutBatch clears a batch returned by Take/TryTake, so it pins no consumed
// entry, and keeps it for the next drain while fewer than maxFreeBatches are
// kept; past that the batch is left to the collector.
func (q *Queue[T]) PutBatch(batch []T) {
	if cap(batch) == 0 {
		return
	}
	clear(batch)
	q.mu.Lock()
	if len(q.free) < maxFreeBatches {
		q.free = append(q.free, batch[:0])
	}
	q.mu.Unlock()
}

// Len reports the total queued entries across tenants.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}

// PerTenant reports the queued backlog per tenant (nil when empty) — the
// signal surfaced through DFK.TenantBacklog and the interchange's
// tenant-depth probe.
func (q *Queue[T]) PerTenant() map[string]int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.size == 0 {
		return nil
	}
	out := make(map[string]int, len(q.ring))
	for _, f := range q.ring {
		out[f.tenant] = f.len()
	}
	return out
}

// Filter removes queued entries for which keep returns false (the
// cancellation path). Tenants left empty drop out of the rotation.
func (q *Queue[T]) Filter(keep func(T) bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, f := range q.ring {
		live := f.items[f.head:]
		kept := f.items[:f.head]
		for _, it := range live {
			if keep(it) {
				kept = append(kept, it)
			}
		}
		var zero T
		for i := len(kept); i < len(f.items); i++ {
			f.items[i] = zero
		}
		q.size -= f.len() - (len(kept) - f.head)
		f.items = kept
	}
	ring := q.ring[:0]
	for _, f := range q.ring {
		if f.len() > 0 {
			ring = append(ring, f)
		} else {
			q.retire(f) // idle tenants are reclaimed, as in drain
		}
	}
	for i := len(ring); i < len(q.ring); i++ {
		q.ring[i] = nil
	}
	q.ring = ring
	if len(q.ring) == 0 {
		q.cursor = 0
	} else {
		q.cursor %= len(q.ring)
	}
}

// Close marks the queue finished; Take drains remaining entries first.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// Policy selects what Admission does to a submission finding its tenant at
// quota.
type Policy int

const (
	// Block parks the submitter until a completion frees quota or its
	// context is canceled — backpressure propagated to the producer.
	Block Policy = iota
	// Shed rejects immediately with ErrOverloaded — load shedding for
	// submitters that would rather retry elsewhere than wait.
	Shed
)

// Gate is one tenant's admission state, shared by every task the tenant has
// admitted: its quota count, its window of ready tasks and its parked
// submitters. A task keeps its gate from admission to retirement, so launch
// and retirement touch the counters with atomics — no map lookup, no lock.
// The Admission's lock is taken only to park, to wake parked submitters, and
// to bind or delete a named tenant's gate.
type Gate struct {
	a      *Admission
	tenant string
	quota  int64 // the tenant's live-task cap; <= 0 = none

	live  atomic.Int64 // quota slots held; counted only when quota > 0
	ready atomic.Int64 // window slots held: tasks from launch to retirement
	// refs counts admitted tasks and parked submitters. A named tenant's gate
	// leaves the table when it drops to zero; the default tenant's never does.
	refs atomic.Int64
	// parked counts the submitters waiting on ch, so a retirement checks for
	// them without the lock.
	parked atomic.Int32
	ch     chan struct{} // under a.mu; closed to wake the parked submitters
}

// Admission bounds, per tenant, the live tasks (a quota) and the ready tasks
// (a window). A quota slot is held from admission until Release — submission
// through terminal state — so it covers every queue the task can occupy in
// between. A window slot is held only while a task is ready to run (from
// Gate.Ready to Gate.Release): the executors drain those without help, so a
// submitter parked at the window is woken whatever else the program does,
// while a quota counts tasks whose inputs may never arrive. Together they
// make memory under overload O(quota or window per tenant) instead of
// O(submissions).
type Admission struct {
	quota  int
	quotas map[string]int
	policy Policy
	window int64 // each tenant's window of ready tasks; <= 0 = none

	// def is the default tenant's gate, bound for the Admission's lifetime
	// and never in tenants.
	def *Gate

	mu      sync.Mutex
	tenants map[string]*Gate
}

// NewAdmission creates an admission bound: quota is the default per-tenant
// cap (<= 0 means unlimited), quotas overrides it per tenant id, and policy
// picks the overload behavior.
func NewAdmission(quota int, quotas map[string]int, policy Policy) *Admission {
	return NewWindowedAdmission(quota, quotas, policy, 0)
}

// NewWindowedAdmission is NewAdmission plus a window of ready tasks per
// tenant: a submitter whose tenant holds window ready tasks parks — whatever
// the policy, which governs quotas only — until retirements bring the count
// down to window/2.
func NewWindowedAdmission(quota int, quotas map[string]int, policy Policy, window int) *Admission {
	var cp map[string]int
	if len(quotas) > 0 {
		cp = make(map[string]int, len(quotas))
		for k, v := range quotas {
			cp[k] = v
		}
	}
	a := &Admission{quota: quota, quotas: cp, policy: policy, window: int64(window), tenants: make(map[string]*Gate)}
	a.def = &Gate{a: a, tenant: DefaultTenant, quota: int64(a.QuotaFor(DefaultTenant))}
	return a
}

// QuotaFor reports the live-task cap for tenant (<= 0 = unlimited).
func (a *Admission) QuotaFor(tenant string) int {
	if q, ok := a.quotas[tenant]; ok {
		return q
	}
	return a.quota
}

// Live reports tenant's admitted-but-unreleased task count against its quota
// (always 0 for a tenant without one).
func (a *Admission) Live(tenant string) int {
	if tenant == DefaultTenant {
		return int(a.def.live.Load())
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if g, ok := a.tenants[tenant]; ok {
		return int(g.live.Load())
	}
	return 0
}

// Admit admits one task for tenant against its quota, applying the overload
// policy when the tenant is at quota: Block parks until a Release frees a
// slot (returning how long it waited) or ctx is done (returning its cause);
// Shed returns ErrOverloaded at once. A tenant without a quota is admitted at
// once and holds nothing. Call it only from the submitting goroutine, never
// from completion callbacks — blocking there could deadlock the completion
// pipeline that Releases are issued from.
func (a *Admission) Admit(ctx context.Context, tenant string) (waited time.Duration, err error) {
	if a.QuotaFor(tenant) <= 0 {
		return 0, nil
	}
	_, waited, err = a.AdmitGate(ctx, tenant)
	return waited, err
}

// Release returns one unit of tenant's quota and wakes blocked submitters;
// a no-op for a tenant without a quota or with nothing admitted. Safe to call
// from any goroutine, including completion callbacks.
func (a *Admission) Release(tenant string) {
	if a.QuotaFor(tenant) <= 0 {
		return
	}
	g := a.def
	if tenant != DefaultTenant {
		a.mu.Lock()
		g = a.tenants[tenant]
		a.mu.Unlock()
	}
	if g != nil && g.live.Load() > 0 {
		g.Release(false)
	}
}

// AdmitGate admits one task for tenant and returns the tenant's gate, which
// the task holds until g.Release and in between marks itself ready with
// g.Ready. A submitter finding the tenant at its window parks until the
// ready count falls to half the window; at its quota, the policy applies as
// in Admit. On error the gate is nil and nothing is held.
func (a *Admission) AdmitGate(ctx context.Context, tenant string) (g *Gate, waited time.Duration, err error) {
	g = a.bind(tenant)
	var start time.Time
	for {
		// At the window the submitter parks whatever the policy.
		if a.window <= 0 || g.ready.Load() < a.window {
			if g.quota <= 0 || g.live.Add(1) <= g.quota {
				if !start.IsZero() {
					waited = time.Since(start)
				}
				return g, waited, nil
			}
			g.live.Add(-1)
			if a.policy == Shed {
				err = ErrOverloaded
				break
			}
		}
		if start.IsZero() {
			start = time.Now()
		}
		if err = a.park(ctx, g); err != nil {
			break
		}
	}
	if !start.IsZero() {
		waited = time.Since(start)
	}
	a.drop(g)
	return nil, waited, err
}

// Ready takes a window slot for an admitted task whose inputs are resolved.
// It never blocks: only AdmitGate parks, so launches from completion
// callbacks and retries go through even when the window is full.
func (g *Gate) Ready() { g.ready.Add(1) }

// Release retires an admitted task: it gives back the window slot (ready
// reports whether the task took one), the quota slot, and the task's hold on
// the gate, waking parked submitters whose condition may now hold. Never
// blocks.
func (g *Gate) Release(ready bool) {
	a := g.a
	if ready && g.ready.Add(-1) <= a.window/2 && g.parked.Load() > 0 {
		a.wake(g)
	}
	if g.quota > 0 {
		g.live.Add(-1)
		if g.parked.Load() > 0 {
			a.wake(g)
		}
	}
	a.drop(g)
}

// admissible reports whether a submission would now pass both the window and
// the quota.
func (g *Gate) admissible() bool {
	return (g.a.window <= 0 || g.ready.Load() < g.a.window) && (g.quota <= 0 || g.live.Load() < g.quota)
}

// bind returns tenant's gate with a reference taken, creating it when the
// tenant goes idle → live.
func (a *Admission) bind(tenant string) *Gate {
	if tenant == DefaultTenant {
		return a.def
	}
	a.mu.Lock()
	g := a.tenants[tenant]
	if g == nil {
		g = &Gate{a: a, tenant: tenant, quota: int64(a.QuotaFor(tenant))}
		a.tenants[tenant] = g
	}
	g.refs.Add(1)
	a.mu.Unlock()
	return g
}

// drop lets go of one reference to g and deletes a named tenant's gate when
// it was the last, so a high-cardinality tenant space (tenant-per-user)
// cannot grow the table without bound. Its counters are zero by then.
func (a *Admission) drop(g *Gate) {
	if g == a.def || g.refs.Add(-1) != 0 {
		return
	}
	a.mu.Lock()
	// Between the decrement and the lock a submitter may have bound the gate
	// again, or another last holder deleted it first.
	if g.refs.Load() == 0 && a.tenants[g.tenant] == g {
		delete(a.tenants, g.tenant)
	}
	a.mu.Unlock()
}

// park blocks a submitter on g until a retirement wakes it or ctx is done. The
// submitter is counted as parked before the condition is checked again, so a
// retirement between the caller's check and the parking sees it and wakes
// it. A nil return means "check again".
func (a *Admission) park(ctx context.Context, g *Gate) error {
	a.mu.Lock()
	if g.ch == nil {
		g.ch = make(chan struct{})
	}
	ch := g.ch
	g.parked.Add(1)
	if g.admissible() {
		g.parked.Add(-1)
		a.mu.Unlock()
		return nil
	}
	a.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		a.mu.Lock()
		if g.ch == ch {
			g.parked.Add(-1)
		}
		a.mu.Unlock()
		return context.Cause(ctx)
	}
}

// wake releases every submitter parked on g; each checks again what parked it.
func (a *Admission) wake(g *Gate) {
	a.mu.Lock()
	if g.ch != nil {
		close(g.ch)
		g.ch = nil
	}
	g.parked.Store(0)
	a.mu.Unlock()
}
