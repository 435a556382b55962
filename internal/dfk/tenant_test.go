package dfk

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/executor"
	"repro/internal/executor/threadpool"
	"repro/internal/future"
	"repro/internal/monitor"
	"repro/internal/serialize"
)

// TestTenantConcurrentSubmission floods a DFK from many goroutines across
// several tenants under -race: every task completes, per-tenant counts add
// up, and the tasks carry their tenants end to end, into their done events.
func TestTenantConcurrentSubmission(t *testing.T) {
	reg := serialize.NewRegistry()
	store := monitor.NewStore()
	d, err := New(Config{
		Registry:  reg,
		Executors: []executor.Executor{threadpool.New("tp", 4, reg)},
		// Per-tenant counts are tallied off the done events below.
		Monitor: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	echo, err := d.PythonApp("echo", func(args []any, _ map[string]any) (any, error) {
		return args[0], nil
	})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines, perG, tenants = 8, 100, 3
	var wg sync.WaitGroup
	var failures atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%d", g%tenants)
			for i := 0; i < perG; i++ {
				f := echo.Submit(context.Background(), []any{i}, WithTenant(tenant, g%tenants+1))
				if _, err := f.Result(); err != nil {
					failures.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d submissions failed", n)
	}
	// Tenants rode the records: count done tasks per tenant.
	counts := map[string]int{}
	for _, e := range store.Events(monitor.KindTaskState) {
		if e.To == "done" {
			counts[e.Tenant]++
		}
	}
	for g := 0; g < tenants; g++ {
		tenant := fmt.Sprintf("tenant-%d", g)
		want := goroutines / tenants * perG
		if g < goroutines%tenants {
			want += perG
		}
		if counts[tenant] != want {
			t.Fatalf("tenant %s: %d recorded tasks, want %d (all: %v)", tenant, counts[tenant], want, counts)
		}
	}
}

// TestTenantQuotaShed: over-quota submissions under the shed policy fail
// fast with ErrOverloaded, create no task record, emit a KindTenant event,
// and the tenant recovers once its live tasks finish.
func TestTenantQuotaShed(t *testing.T) {
	reg := serialize.NewRegistry()
	store := monitor.NewStore()
	gate := make(chan struct{})
	d, err := New(Config{
		Registry:          reg,
		Executors:         []executor.Executor{threadpool.New("tp", 2, reg)},
		Monitor:           store,
		MaxTasksPerTenant: 2,
		OverloadPolicy:    OverloadShed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	wait, err := d.PythonApp("wait", func([]any, map[string]any) (any, error) {
		<-gate
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	f1 := wait.Submit(ctx, nil, WithTenant("t", 1))
	f2 := wait.Submit(ctx, nil, WithTenant("t", 1))
	shed := wait.Submit(ctx, nil, WithTenant("t", 1))
	if err := shed.Err(); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third submission = %v, want ErrOverloaded", err)
	}
	// Another tenant is unaffected by t's quota exhaustion.
	other := wait.Submit(ctx, nil, WithTenant("other", 1))

	if got := d.Outstanding(); got != 3 {
		t.Fatalf("Outstanding = %d with the shed submission refused, want 3", got)
	}
	close(gate)
	for _, f := range []*future.Future{f1, f2, other} {
		if _, err := f.Result(); err != nil {
			t.Fatal(err)
		}
	}
	if got := concluded(d); got != 3 {
		t.Fatalf("%d tasks concluded, want 3: the shed submission is no task", got)
	}
	if got := wait.Submit(ctx, nil, WithTenant("t", 1)); got.Err() != nil {
		if _, err := got.Result(); err != nil {
			t.Fatalf("tenant did not recover after completions: %v", err)
		}
	} else if _, err := got.Result(); err != nil {
		t.Fatal(err)
	}
	events := store.Events(monitor.KindTenant)
	found := false
	for _, e := range events {
		if e.Tenant == "t" && e.Detail == "shed" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no shed tenant event recorded; got %v", events)
	}
}

// TestTenantWeightShares backlogs two tenants with 3:1 weights on a
// single-worker pool and checks completion throughput tracks the weights:
// when the light tenant finishes its backlog, the heavy tenant must have
// completed roughly three times as much.
func TestTenantWeightShares(t *testing.T) {
	reg := serialize.NewRegistry()
	d, err := New(Config{
		Registry: reg,
		// One worker and a depth-1 input queue: the only place tasks can
		// wait is the tenant-fair lane, so shares are DRR-governed.
		Executors:     []executor.Executor{threadpool.NewWithDepth("tp", 1, 1, reg)},
		DispatchBatch: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	var heavyDone atomic.Int64
	work, err := d.PythonApp("work", func(args []any, _ map[string]any) (any, error) {
		time.Sleep(time.Millisecond)
		return args[0], nil
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	const lightN = 40
	heavyFuts := make([]*future.Future, 0, 3*lightN+200)
	for i := 0; i < cap(heavyFuts); i++ {
		f := work.Submit(ctx, []any{i}, WithTenant("heavy", 3))
		f.AddDoneCallback(func(df *future.Future) {
			if df.Err() == nil {
				heavyDone.Add(1)
			}
		})
		heavyFuts = append(heavyFuts, f)
	}
	lightFuts := make([]*future.Future, lightN)
	for i := range lightFuts {
		lightFuts[i] = work.Submit(ctx, []any{i}, WithTenant("light", 1))
	}
	for _, f := range lightFuts {
		if _, err := f.Result(); err != nil {
			t.Fatal(err)
		}
	}
	h := heavyDone.Load()
	ratio := float64(h) / float64(lightN)
	// Weights say 3:1; accept [1.5, 6] — scheduling noise, the head start
	// from submission order, and batch quantization all blur the edges.
	if ratio < 1.5 || ratio > 6 {
		t.Fatalf("heavy:light completion ratio %.2f (heavy %d, light %d), want ~3", ratio, h, lightN)
	}
	for _, f := range heavyFuts {
		if _, err := f.Result(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTenantBlockedAdmissionCtxCancel parks a submitter on a full quota
// under the block policy, cancels its context, and verifies it unblocks
// with a cancellation error, leaks no quota, and the tenant keeps working.
func TestTenantBlockedAdmissionCtxCancel(t *testing.T) {
	reg := serialize.NewRegistry()
	gate := make(chan struct{})
	d, err := New(Config{
		Registry:          reg,
		Executors:         []executor.Executor{threadpool.New("tp", 2, reg)},
		MaxTasksPerTenant: 1,
		OverloadPolicy:    OverloadBlock,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	wait, err := d.PythonApp("wait", func([]any, map[string]any) (any, error) {
		<-gate
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	f1 := wait.Submit(context.Background(), nil, WithTenant("t", 1))
	if live := d.TenantLive("t"); live != 1 {
		t.Fatalf("TenantLive = %d, want 1", live)
	}

	ctx, cancel := context.WithCancel(context.Background())
	blocked := make(chan *future.Future, 1)
	go func() {
		blocked <- wait.Submit(ctx, nil, WithTenant("t", 1))
	}()
	select {
	case f := <-blocked:
		t.Fatalf("second submission did not block: %v", f.Err())
	case <-time.After(50 * time.Millisecond):
	}
	cancel()
	var f2 *future.Future
	select {
	case f2 = <-blocked:
	case <-time.After(2 * time.Second):
		t.Fatal("canceled submitter never unblocked")
	}
	err = f2.Err()
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("blocked-then-canceled submission = %v, want ErrCanceled wrapping context.Canceled", err)
	}

	// The canceled wait consumed no quota: finishing f1 frees the only
	// slot, and a fresh submission admits immediately.
	close(gate)
	if _, err := f1.Result(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := wait.Submit(context.Background(), nil, WithTenant("t", 1)).Result()
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("post-cancel submission blocked: quota leaked")
	}
}

// TestTenantBlockedAdmissionBackpressure: the block policy parks the
// submitter until completions free quota — throughput continues, bounded,
// and every task runs exactly once.
func TestTenantBlockedAdmissionBackpressure(t *testing.T) {
	reg := serialize.NewRegistry()
	var maxLive, live, ran atomic.Int64
	d, err := New(Config{
		Registry:          reg,
		Executors:         []executor.Executor{threadpool.New("tp", 4, reg)},
		MaxTasksPerTenant: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	workApp, err := d.PythonApp("work", func([]any, map[string]any) (any, error) {
		n := live.Add(1)
		for {
			m := maxLive.Load()
			if n <= m || maxLive.CompareAndSwap(m, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		live.Add(-1)
		ran.Add(1)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	const n = 50
	futs := make([]*future.Future, n)
	for i := range futs {
		futs[i] = workApp.Submit(context.Background(), nil, WithTenant("t", 1))
	}
	for _, f := range futs {
		if _, err := f.Result(); err != nil {
			t.Fatal(err)
		}
	}
	if got := ran.Load(); got != n {
		t.Fatalf("ran %d tasks, want %d", got, n)
	}
	if got := maxLive.Load(); got > 3 {
		t.Fatalf("observed %d concurrently-running tasks, quota 3", got)
	}
	// A task releases its admission slot at retirement, just after its
	// future settles; WaitAll returns once every task has retired.
	d.WaitAll()
	if got := d.TenantLive("t"); got != 0 {
		t.Fatalf("TenantLive after drain = %d, want 0", got)
	}
}

// TestTenantStageInBypassesAdmission regresses a submission deadlock: a
// quota-1 tenant submits a task with a remote unstaged file, which spawns a
// hidden stage-in task on the same goroutine. The internal task must bypass
// admission — the user task already holds the tenant's only slot and cannot
// release it until staging finishes, so admitting the stage-in against the
// same quota would park the submitter forever under the block policy.
func TestTenantStageInBypassesAdmission(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("tenant-payload"))
	}))
	defer srv.Close()

	dm, err := data.NewManager(filepath.Join(t.TempDir(), "work"))
	if err != nil {
		t.Fatal(err)
	}
	reg := serialize.NewRegistry()
	d, err := New(Config{
		Registry:          reg,
		Executors:         []executor.Executor{threadpool.New("tp", 2, reg)},
		DataManager:       dm,
		MaxTasksPerTenant: 1,
		OverloadPolicy:    OverloadBlock,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	read, err := d.PythonApp("readfile", func(args []any, _ map[string]any) (any, error) {
		b, err := os.ReadFile(args[0].(*data.File).LocalPath())
		if err != nil {
			return nil, err
		}
		return string(b), nil
	})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		v, err := read.Submit(context.Background(), []any{data.MustFile(srv.URL + "/in.dat")},
			WithTenant("t", 1)).Result()
		if err == nil && v != "tenant-payload" {
			err = fmt.Errorf("v = %v", v)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("staged submission deadlocked against its own tenant quota")
	}
}

// TestTenantBacklogCountsLanes: DFK.TenantBacklog is the client-side
// per-tenant view, so work routed to a plugged executor's lane shows up under
// its tenant — not only what sits in the routing queue, which the dispatcher
// empties every cycle — and the view empties once the lane drains.
func TestTenantBacklogCountsLanes(t *testing.T) {
	ge := newGateExec("gate")
	d, err := New(Config{Executors: []executor.Executor{ge}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	app, err := d.PythonApp("w", func([]any, map[string]any) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	release := sync.OnceFunc(func() { close(ge.gate) })
	defer release() // before Shutdown, which waits for the parked lane runner
	futs := []*future.Future{app.Call()}
	<-ge.entered // the lane runner is parked in the executor; the rest queue in the lane
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		futs = append(futs, app.Submit(ctx, nil, WithTenant("a", 1)))
	}
	for i := 0; i < 2; i++ {
		futs = append(futs, app.Submit(ctx, nil, WithTenant("b", 1)))
	}
	// All five routed past the routing queue and sitting in the lane.
	waitFor(t, func() bool { return d.lanes["gate"].queue.Len() == 5 })
	if got, want := d.TenantBacklog(), map[string]int{"a": 3, "b": 2}; !maps.Equal(got, want) {
		t.Fatalf("TenantBacklog = %v, want %v", got, want)
	}
	release()
	if err := future.Wait(futs...); err != nil {
		t.Fatal(err)
	}
	if got := d.TenantBacklog(); len(got) != 0 {
		t.Fatalf("TenantBacklog = %v after the lane drained, want empty", got)
	}
}
