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
//   - Admission, a per-tenant bound on live tasks with a configurable
//     overload policy: block the submitter (context-aware) until completions
//     free quota, or shed immediately with ErrOverloaded. This is what keeps
//     memory bounded under overload — the fair queue shapes *order*, the
//     admission bound shapes *volume*.
//
// Both types are safe for concurrent use. Neither blocks inside executor
// completion callbacks: Queue pushes never block (the queues stay unbounded;
// boundedness comes from admission at the submission boundary, where blocking
// is safe), and Admission.Release never blocks.
package fair

import (
	"context"
	"errors"
	"sort"
	"sync"
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
// positions out of order, from the sharded routing queue), so the walk from
// the tail is a step or two and an in-order workload takes none.
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
// provided.
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

	batchPool sync.Pool
}

// NewQueue creates a fair queue. less, when non-nil, orders entries within
// each tenant's sub-queue (smallest first per less); nil means FIFO.
func NewQueue[T any](less func(a, b T) bool) *Queue[T] {
	q := &Queue[T]{less: less, tenants: make(map[string]*flow[T])}
	q.cond = sync.NewCond(&q.mu)
	q.batchPool.New = func() any {
		s := make([]T, 0, 256)
		return &s
	}
	return q
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
		f = &flow[T]{tenant: tenant, weight: 1}
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
// to max entries into a pooled batch.
func (q *Queue[T]) drain(max int) []T {
	batch := (*q.batchPool.Get().(*[]T))[:0]
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
			delete(q.tenants, f.tenant)
			f.active = false
			copy(q.ring[q.cursor:], q.ring[q.cursor+1:])
			q.ring[len(q.ring)-1] = nil
			q.ring = q.ring[:len(q.ring)-1]
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
// returned slice comes from a pooled scratch buffer; hand it back with
// PutBatch once the entries have been consumed.
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
// queue is empty. Same pooled-batch contract as Take.
func (q *Queue[T]) TryTake(max int) []T {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.size == 0 {
		return nil
	}
	return q.drain(max)
}

// PutBatch clears a batch returned by Take/TryTake (so pooled slices do not
// pin consumed entries) and recycles it.
func (q *Queue[T]) PutBatch(batch []T) {
	var zero T
	for i := range batch {
		batch[i] = zero
	}
	batch = batch[:0]
	q.batchPool.Put(&batch)
}

// Len reports the total queued entries across tenants.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}

// PerTenant reports the queued backlog per tenant (nil when empty) — the
// signal surfaced through sched.Load.TenantBacklog and the interchange's
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

// PeekMax reports the maximum metric(entry) over all queued entries, or 0
// when empty. With a comparator configured, each flow's head is its extreme,
// so the scan is O(active tenants); without one the whole queue is scanned.
// The dispatch pipeline uses it to surface lane urgency (max queued priority).
func (q *Queue[T]) PeekMax(metric func(T) int) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.size == 0 {
		return 0
	}
	best := 0
	first := true
	for _, f := range q.ring {
		if q.less != nil {
			f.ensureSorted(q.less)
			if v := metric(f.items[f.head]); first || v > best {
				best, first = v, false
			}
			continue
		}
		for _, it := range f.items[f.head:] {
			if v := metric(it); first || v > best {
				best, first = v, false
			}
		}
	}
	return best
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
			f.active = false
			delete(q.tenants, f.tenant) // idle tenants are reclaimed, as in drain
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

// gate is one tenant's admission state. Blocked submitters wait on the
// current wakeup channel alongside their contexts; a release closes and
// replaces it — but only when waiters are actually parked, so the common
// uncontended Release (every task completion takes this path) costs no
// channel allocation.
type gate struct {
	live    int
	waiters int
	ch      chan struct{}
}

// Admission bounds live tasks per tenant. A task is live from Admit until
// Release — submission through terminal state — so the bound covers every
// queue the task can occupy in between, making total memory under overload
// O(sum of quotas) instead of O(submissions).
type Admission struct {
	quota  int
	quotas map[string]int
	policy Policy

	mu      sync.Mutex
	tenants map[string]*gate
}

// NewAdmission creates an admission bound: quota is the default per-tenant
// cap (<= 0 means unlimited), quotas overrides it per tenant id, and policy
// picks the overload behavior.
func NewAdmission(quota int, quotas map[string]int, policy Policy) *Admission {
	var cp map[string]int
	if len(quotas) > 0 {
		cp = make(map[string]int, len(quotas))
		for k, v := range quotas {
			cp[k] = v
		}
	}
	return &Admission{quota: quota, quotas: cp, policy: policy, tenants: make(map[string]*gate)}
}

// QuotaFor reports the live-task cap for tenant (<= 0 = unlimited).
func (a *Admission) QuotaFor(tenant string) int {
	if q, ok := a.quotas[tenant]; ok {
		return q
	}
	return a.quota
}

// Live reports tenant's admitted-but-unreleased task count.
func (a *Admission) Live(tenant string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if g, ok := a.tenants[tenant]; ok {
		return g.live
	}
	return 0
}

// Admit claims one unit of tenant's quota, applying the overload policy when
// the tenant is at its cap: Shed returns ErrOverloaded immediately; Block
// waits until a Release frees quota or ctx is done (returning the context's
// error). waited reports how long the caller was parked, for monitoring.
//
// Admit must only be called from submission goroutines, never from executor
// completion callbacks — blocking there could deadlock the completion
// pipeline that Releases are issued from.
func (a *Admission) Admit(ctx context.Context, tenant string) (waited time.Duration, err error) {
	quota := a.QuotaFor(tenant)
	if quota <= 0 {
		return 0, nil
	}
	var start time.Time
	a.mu.Lock()
	g, ok := a.tenants[tenant]
	if !ok {
		g = &gate{ch: make(chan struct{})}
		a.tenants[tenant] = g
	}
	for g.live >= quota {
		if a.policy == Shed {
			a.mu.Unlock()
			return 0, ErrOverloaded
		}
		ch := g.ch
		g.waiters++
		a.mu.Unlock()
		if start.IsZero() {
			start = time.Now()
		}
		var cause error
		select {
		case <-ctx.Done():
			cause = context.Cause(ctx)
		case <-ch:
		}
		a.mu.Lock()
		g.waiters--
		if cause != nil {
			if g.live == 0 && g.waiters == 0 {
				delete(a.tenants, tenant)
			}
			a.mu.Unlock()
			return time.Since(start), cause
		}
	}
	g.live++
	a.mu.Unlock()
	if !start.IsZero() {
		waited = time.Since(start)
	}
	return waited, nil
}

// Release returns one unit of tenant's quota and wakes blocked submitters.
// Safe to call from any goroutine, including completion callbacks.
func (a *Admission) Release(tenant string) {
	a.mu.Lock()
	if g, ok := a.tenants[tenant]; ok && g.live > 0 {
		g.live--
		if g.waiters > 0 {
			close(g.ch)
			g.ch = make(chan struct{})
		} else if g.live == 0 {
			// Idle tenants are reclaimed so a high-cardinality id space
			// (tenant-per-user) cannot grow the table without bound.
			delete(a.tenants, tenant)
		}
	}
	a.mu.Unlock()
}
