// Package dfk implements the DataFlowKernel (§4.1), Parsl's execution
// management engine. The DFK assembles a dynamic task dependency graph from
// app invocations, encodes edges as callbacks on dependent futures (making
// execution event driven with O(n+e) cost), routes ready tasks through a
// pluggable scheduler (random by default, matching the paper; round-robin
// and capacity-aware policies via internal/sched), dispatches them in
// batches onto configured executors, retries failures, consults the
// memoization/checkpoint table, injects data-staging tasks for remote
// files, and records every state transition with the monitoring subsystem.
package dfk

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/app"
	"repro/internal/data"
	"repro/internal/executor"
	"repro/internal/fair"
	"repro/internal/future"
	"repro/internal/health"
	"repro/internal/memo"
	"repro/internal/monitor"
	"repro/internal/sched"
	"repro/internal/serialize"
	"repro/internal/task"
	"repro/internal/wal"
)

// Config configures a DataFlowKernel, the programmatic analogue of Parsl's
// Config object (§3.5). Code stays fixed; this changes per resource.
type Config struct {
	// Executors are the started-or-startable executors; at least one.
	Executors []executor.Executor
	// Registry is the shared app registry. In-process executors must be
	// constructed over the same registry so workers can resolve app names
	// (the analogue of workers importing the same Python modules). When
	// nil, the DFK creates a private registry.
	Registry *serialize.Registry
	// Retries is the per-task retry budget (0 = fail on first error).
	Retries int
	// Memoize enables app memoization program-wide (§4.6); individual apps
	// can override via WithMemoize.
	Memoize bool
	// Checkpoint, when non-empty, persists memoized results to this file
	// and preloads it, enabling restart-without-rerun (§3.7).
	Checkpoint string
	// Monitor receives execution events; nil disables monitoring.
	Monitor monitor.Sink
	// DataManager stages remote files; nil disables data management.
	DataManager *data.Manager
	// TaskTimeout bounds a single execution attempt, measured from when
	// the ready task is routed — queue wait behind a backlogged executor
	// counts (0 = no timeout).
	TaskTimeout time.Duration
	// Seed makes executor selection deterministic in tests (0 = a random
	// seed). It feeds the default random scheduler; explicit Schedulers
	// own their randomness.
	Seed int64
	// Scheduler picks an executor for each ready task. Nil selects the
	// policy named by SchedulerPolicy.
	Scheduler sched.Scheduler
	// SchedulerPolicy names the policy when Scheduler is nil: "random"
	// (paper default, §4.1), "round-robin", or "least-outstanding".
	SchedulerPolicy string
	// DispatchBatch caps the routed tasks a lane runner drains at once, and
	// so the largest batch handed to an executor in one call (default 256).
	DispatchBatch int
	// MaxTasksPerTenant caps each tenant's live tasks — submitted but not
	// yet terminal — bounding memory under overload. 0 (the default) sets no
	// quota; each tenant's window of ready tasks (see New) still applies. A
	// task counts against its tenant from App.Submit until its future settles.
	MaxTasksPerTenant int
	// TenantQuotas overrides MaxTasksPerTenant for specific tenant ids
	// (<= 0 entries mean unlimited for that tenant).
	TenantQuotas map[string]int
	// OverloadPolicy selects what a submission over quota does:
	// OverloadBlock (default) parks the submitter until completions free
	// quota or its context is canceled; OverloadShed fails fast with
	// ErrOverloaded.
	OverloadPolicy string
	// WAL enables the durable dataflow log: every task's state transitions
	// (submit with its encode-once payload, launch, retry, terminal) are
	// appended to a crash-safe write-ahead log under WALDir, and a restarted
	// process can call Recover to resolve terminal tasks from durable state
	// and re-admit in-flight ones exactly once. Off by default: with WAL
	// unset, no log exists and the dispatch path is byte-identical to the
	// pre-WAL behavior.
	WAL bool
	// WALDir is the log's segment directory; required when WAL is set.
	WALDir string
	// WALCompactEvery folds terminal history into a snapshot after this many
	// terminal records (0 = 4096; negative disables auto-compaction).
	WALCompactEvery int
	// Health enables the self-healing retry plane (internal/health): typed
	// failure classification with per-class retry policies, deterministic
	// jittered backoff between attempts, per-executor circuit breakers, and
	// poison-task quarantine. Nil (the default) disables the plane entirely —
	// retries re-enter dispatch inline and the hot path is byte-identical to
	// the pre-health behavior. The zero &health.Options{} enables it with
	// defaults.
	Health *health.Options
}

// Overload policies for Config.OverloadPolicy.
const (
	// OverloadBlock propagates backpressure to the submitting goroutine.
	OverloadBlock = "block"
	// OverloadShed rejects over-quota submissions with ErrOverloaded.
	OverloadShed = "shed"
)

// DependencyError is set on a task's future when one of its dependencies
// failed; the task itself is never launched (§4.1).
type DependencyError struct {
	TaskID int64
	DepID  int64
	Err    error
}

// Error implements error.
func (e *DependencyError) Error() string {
	return fmt.Sprintf("task %d: dependency task %d failed: %v", e.TaskID, e.DepID, e.Err)
}

// Unwrap exposes the underlying dependency failure.
func (e *DependencyError) Unwrap() error { return e.Err }

// ErrTimeout is wrapped into task failures caused by TaskTimeout (or the
// per-call WithTimeout/WithDeadline overrides).
var ErrTimeout = errors.New("dfk: task attempt timed out")

// ErrCanceled is wrapped into task failures caused by cancellation of the
// submission context. The context's own error is wrapped alongside it, so
// errors.Is(err, context.Canceled) holds too.
var ErrCanceled = errors.New("dfk: submission canceled")

// ErrOverloaded is set on the returned future when a submission exceeds its
// tenant's quota under the shed policy. No task record is created: a shed
// submission never existed as far as the task counts, the memo table, or the
// monitor's task log are concerned (a KindTenant event records the shed).
var ErrOverloaded = fair.ErrOverloaded

// DFK is the DataFlowKernel.
type DFK struct {
	cfg      Config
	registry *serialize.Registry
	memoizer *memo.Memoizer
	wal      *wal.Log // nil unless Config.WAL
	mon      monitor.Sink
	// monitored is decided once, in New: without a sink attached the per-task
	// emit points return before building (or timestamping) an event.
	monitored bool

	schedr sched.Scheduler
	// digestPicker is schedr when it is a sched.DigestPicker, resolved once in
	// New; it also gates the per-attempt input-digest computation (ArgsHash
	// allocates a string, so digest-blind configs must never pay for it).
	digestPicker sched.DigestPicker
	// lanes are the executors' lanes by label, the DFK's only per-executor
	// record; views holds them in config order, the candidate set of a task
	// without hints.
	lanes    map[string]*lane
	views    []executor.Executor
	batchMax int
	// hp is the self-healing retry plane; nil unless Config.Health is set.
	hp *healthPlane
	// adm bounds each tenant at the submission boundary: its window of ready
	// tasks always, its live tasks when a quota is configured.
	adm    *fair.Admission
	laneWG sync.WaitGroup

	wg sync.WaitGroup
	// mu orders submissions against Shutdown: submitters hold it shared (a
	// per-submit exclusive lock would serialize the hot path), Shutdown
	// exclusively, so every wg.Add happens-before Shutdown's wg.Wait.
	mu       sync.RWMutex
	shutdown bool

	// The DFK keeps no task table: a task is reachable from its future, and
	// these counters are all it tallies. ids issues task ids and retry wire
	// ids, created counts tasks; only the submit and retry paths write them.
	// terminals counts concluded tasks per id shard. The padding keeps the
	// submit path's line apart from wg's and from the finish path's tallies.
	_            [64]byte
	ids, created atomic.Int64
	_            [64]byte
	terminals    [task.NumShards]terminalTally
}

// terminalTally is one id shard's concluded tasks, by terminal state (n[0]
// done, n[1] failed, n[2] memoized), and their total, padded to a cache line.
type terminalTally struct {
	n     [3]atomic.Int64
	total atomic.Int64
	_     [64 - 4*8]byte
}

// window is each tenant's window of ready tasks (see New).
const window = 2048

// New constructs and starts a DataFlowKernel: all executors are started and
// the checkpoint (if any) is loaded.
//
// Every tenant, the default one included, has a window of ready tasks — tasks
// whose inputs are resolved, from launch until they conclude. A submission
// finding its tenant at W = 2048 of them parks in App.Submit (whatever
// OverloadPolicy says, and until its context is done) and resumes when the
// count falls to W/2. A task waiting on a dependency holds no slot,
// so every slot holder can run and the executors drain the window without
// the parked goroutine's help.
func New(cfg Config) (*DFK, error) {
	if len(cfg.Executors) == 0 {
		return nil, errors.New("dfk: config needs at least one executor")
	}
	reg := cfg.Registry
	if reg == nil {
		reg = serialize.NewRegistry()
	}
	d := &DFK{
		cfg:      cfg,
		registry: reg,
		lanes:    make(map[string]*lane, len(cfg.Executors)),
		batchMax: cfg.DispatchBatch,
	}
	if d.batchMax <= 0 {
		d.batchMax = 256
	}
	// Validate the policy string even in quota-less configs, so a typo is
	// rejected where it was written, not when quotas are enabled later.
	var policy fair.Policy
	switch cfg.OverloadPolicy {
	case "", OverloadBlock:
		policy = fair.Block
	case OverloadShed:
		policy = fair.Shed
	default:
		return nil, fmt.Errorf("dfk: unknown overload policy %q", cfg.OverloadPolicy)
	}
	d.adm = fair.NewWindowedAdmission(cfg.MaxTasksPerTenant, cfg.TenantQuotas, policy, window)
	d.schedr = cfg.Scheduler
	if d.schedr == nil {
		// sched.ByName derives its own random seed for Seed == 0.
		var err error
		d.schedr, err = sched.ByName(cfg.SchedulerPolicy, cfg.Seed)
		if err != nil {
			return nil, fmt.Errorf("dfk: %w", err)
		}
	}
	d.digestPicker, _ = d.schedr.(sched.DigestPicker)

	d.mon = monitor.Nop{}
	if _, nop := cfg.Monitor.(monitor.Nop); cfg.Monitor != nil && !nop {
		d.mon, d.monitored = cfg.Monitor, true
	}

	var err error
	if cfg.Checkpoint != "" {
		d.memoizer, err = memo.NewWithCheckpoint(cfg.Checkpoint)
		if err != nil {
			return nil, err
		}
	} else {
		d.memoizer = memo.New()
	}

	// On any startup failure, stop what was already started — the caller
	// gets a nil DFK and would otherwise have no handle to the leaked
	// executor goroutines (or the checkpoint file).
	abort := func(err error) (*DFK, error) {
		for _, l := range d.views {
			_ = l.Shutdown()
		}
		_ = d.memoizer.Close()
		if d.wal != nil {
			_ = d.wal.Close()
		}
		return nil, err
	}
	if cfg.WAL {
		if cfg.WALDir == "" {
			return abort(errors.New("dfk: Config.WAL requires WALDir"))
		}
		// OnCrash freezes the memoizer at the same injected record boundary
		// the log freezes at: the checkpoint freezes with the log, so no
		// checkpoint write follows a record the frozen log refused.
		w, err := wal.Open(cfg.WALDir, wal.Options{
			CompactEvery: cfg.WALCompactEvery,
			OnCrash:      d.memoizer.Freeze,
		})
		if err != nil {
			return abort(fmt.Errorf("dfk: open wal: %w", err))
		}
		d.wal = w
	}
	for _, ex := range cfg.Executors {
		if _, dup := d.lanes[ex.Label()]; dup {
			return abort(fmt.Errorf("dfk: duplicate executor label %q", ex.Label()))
		}
		if err := ex.Start(); err != nil {
			// A Start that fails half way (interchanges up, scale-out
			// refused) has goroutines of its own, and the executor has no
			// lane yet for abort to find it by.
			_ = ex.Shutdown()
			return abort(fmt.Errorf("dfk: start executor %s: %w", ex.Label(), err))
		}
		l := newLane(d, ex)
		d.lanes[l.label] = l
		d.views = append(d.views, l)
	}
	if cfg.Health != nil {
		d.hp = newHealthPlane(d, cfg.Health)
	}
	for _, l := range d.lanes {
		d.laneWG.Add(1)
		go d.laneRunner(l)
	}
	return d, nil
}

// Registry exposes the app registry (workers share it in-process).
func (d *DFK) Registry() *serialize.Registry { return d.registry }

// Memoizer exposes memo statistics for tests and benchmarks.
func (d *DFK) Memoizer() *memo.Memoizer { return d.memoizer }

// WAL exposes the durable dataflow log; nil unless Config.WAL is set.
func (d *DFK) WAL() *wal.Log { return d.wal }

// Executor returns the executor registered under label.
func (d *DFK) Executor(label string) (executor.Executor, bool) {
	if l, ok := d.lanes[label]; ok {
		return l.Executor, true
	}
	return nil, false
}

// Scheduler exposes the active executor-selection policy.
func (d *DFK) Scheduler() sched.Scheduler { return d.schedr }

// Loads samples live load signals from every configured executor, in config
// order — what a capacity-aware pick reads at that moment, so Outstanding
// includes the tasks routed to the executor's lane but not yet submitted.
func (d *DFK) Loads() []sched.Load {
	out := make([]sched.Load, len(d.views))
	for i, l := range d.views {
		out[i] = sched.LoadOf(l)
	}
	return out
}

// TenantBacklog reports the client-side backlog per tenant (key "" is the
// default tenant): tasks routed to an executor lane but not yet submitted,
// counted once the lane's runner holds them (a push to a parked runner waits
// in its inbox until it wakes). Empty when nothing is queued.
func (d *DFK) TenantBacklog() map[string]int {
	out := make(map[string]int)
	for _, l := range d.lanes {
		for t, n := range l.queue.PerTenant() {
			out[t] += n
		}
	}
	return out
}

// newTask draws a task id, in the sequence 0, 1, 2… that retry wire ids share,
// and counts the task as created.
func (d *DFK) newTask() int64 {
	d.created.Add(1)
	return d.ids.Add(1) - 1
}

// TenantLive reports a tenant's live (admitted, not yet terminal) task
// count; always 0 when no quota is configured, since nothing is counted.
func (d *DFK) TenantLive(tenant string) int { return d.adm.Live(tenant) }

// App is an invocable Parsl app — what the @python_app/@bash_app decorators
// produce. Calling it registers a task and returns its future immediately.
type App struct {
	dfk      *DFK
	name     string
	memoize  bool
	hints    []string
	bodyHash string
}

// AppOption customizes app registration.
type AppOption func(*appOpts)

type appOpts struct {
	memoize   *bool
	hints     []string
	version   string
	bashOpts  app.Options
	isBashSet bool
}

// WithMemoize overrides the program-level memoization default for this app
// ("memoization can be defined at both the program and individual App
// levels", §4.6).
func WithMemoize(on bool) AppOption {
	return func(o *appOpts) { o.memoize = &on }
}

// WithExecutors pins the app to specific executor labels (execution hints).
func WithExecutors(labels ...string) AppOption {
	return func(o *appOpts) { o.hints = labels }
}

// WithVersion sets the app body version used in memo keys; bump it to model
// editing the function body.
func WithVersion(v string) AppOption {
	return func(o *appOpts) { o.version = v }
}

// WithBashOptions sets sandbox/timeout options for Bash apps.
func WithBashOptions(opts app.Options) AppOption {
	return func(o *appOpts) { o.bashOpts = opts; o.isBashSet = true }
}

// PythonApp registers a pure function as an app (the @python_app analogue).
func (d *DFK) PythonApp(name string, fn serialize.Fn, opts ...AppOption) (*App, error) {
	return d.registerApp(name, fn, opts)
}

// BashApp registers a command-line-rendering app (the @bash_app analogue).
// Its future resolves to an app.BashResult.
func (d *DFK) BashApp(name string, tmpl app.BashTemplate, opts ...AppOption) (*App, error) {
	var o appOpts
	for _, opt := range opts {
		opt(&o)
	}
	fn := app.WrapBash(tmpl, o.bashOpts)
	return d.registerApp(name, fn, opts)
}

func (d *DFK) registerApp(name string, fn serialize.Fn, opts []AppOption) (*App, error) {
	o := appOpts{version: "v1"}
	for _, opt := range opts {
		opt(&o)
	}
	if err := d.registry.RegisterVersion(name, o.version, fn); err != nil {
		return nil, err
	}
	entry, _ := d.registry.Lookup(name)
	for _, h := range o.hints {
		if _, ok := d.lanes[h]; !ok {
			return nil, fmt.Errorf("dfk: app %q hints unknown executor %q", name, h)
		}
	}
	memoize := d.cfg.Memoize
	if o.memoize != nil {
		memoize = *o.memoize
	}
	return &App{dfk: d, name: name, memoize: memoize, hints: o.hints, bodyHash: entry.BodyHash()}, nil
}

// Submit invokes the app asynchronously with positional args under ctx,
// returning the AppFuture. Futures among the args become dependencies. Submit
// keeps no reference to args, so the caller may reuse the slice as soon as
// Submit returns; a mutable value inside it stays the caller's until the task
// launches, when its arguments are copied or encoded.
//
// Canceling ctx before the task completes cancels it: the future fails with
// an error wrapping ErrCanceled (and the context's error), dependents fail
// with a DependencyError, and work not yet started is dropped from the
// dispatch pipeline and, where the executor supports it, from the executor
// itself. The order is future first: a canceled future may settle before
// queued work has been dropped, never the other way round. CallOptions
// override registration-time and DFK-wide defaults for this invocation only.
func (a *App) Submit(ctx context.Context, args []any, opts ...CallOption) *future.Future {
	return a.SubmitKw(ctx, nil, args, opts...)
}

// SubmitKw is Submit with keyword arguments. A task that waits on inputs
// copies the map; one without inputs encodes it inside Submit and reads it
// again only for its declared outputs (app.KwOutputs) when it completes.
func (a *App) SubmitKw(ctx context.Context, kwargs map[string]any, args []any, opts ...CallOption) *future.Future {
	var o callOpts
	for i := range opts {
		o.apply(&opts[i])
	}
	return a.dfk.submit(ctx, a, args, kwargs, o)
}

// Call invokes the app asynchronously with positional args, returning the
// AppFuture. It is Submit under a background context, kept as the
// compatibility surface for programs that predate the context-aware API.
func (a *App) Call(args ...any) *future.Future {
	return a.Submit(context.Background(), args)
}

// CallKw invokes the app with keyword and positional arguments.
func (a *App) CallKw(kwargs map[string]any, args ...any) *future.Future {
	return a.SubmitKw(context.Background(), kwargs, args)
}

// submit is the core of App invocation: admit the submission against its
// tenant's quota, build the task record, apply the per-call options, wire
// dependency callbacks and the cancellation watcher, and launch when ready.
//
// The record comes back from task.Create already Pending and held by this
// goroutine until submit returns, so a terminal path that runs meanwhile —
// synchronously (memo hit, dependency already failed) or concurrently (the
// context watcher) — can retire the record but not recycle it.
func (d *DFK) submit(ctx context.Context, a *App, args []any, kwargs map[string]any, o callOpts) *future.Future {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return future.FromError(fmt.Errorf("%w: %w", ErrCanceled, err))
	}
	// Admission runs before anything is allocated or registered: a shed (or
	// canceled-while-blocked) submission leaves no trace in the task counts. It
	// must stay on the submitting goroutine — parking here is safe because
	// the gate is released by task-retirement bookkeeping that never passes
	// through admission (see the invariant note in dispatch.go).
	var gate *fair.Gate
	if !o.noAdmission {
		g, waited, err := d.adm.AdmitGate(ctx, o.tenant)
		if err != nil {
			if errors.Is(err, fair.ErrOverloaded) {
				d.emitTenant(o.tenant, "shed", 0)
				return future.FromError(fmt.Errorf(
					"dfk: tenant %q over quota %d: %w", o.tenant, d.adm.QuotaFor(o.tenant), err))
			}
			// Context canceled (or deadline exceeded) while parked.
			return future.FromError(fmt.Errorf("%w: %w", ErrCanceled, err))
		}
		if waited > 0 {
			d.emitTenant(o.tenant, "admitted", waited)
		}
		gate = g
	}
	d.mu.RLock()
	if d.shutdown {
		d.mu.RUnlock()
		if gate != nil {
			gate.Release(false)
		}
		return future.FromError(executor.ErrShutdown)
	}
	d.wg.Add(1)
	d.mu.RUnlock()

	id := d.newTask()
	// The retire path releases the gate whichever way the task concluded —
	// done, failed, memoized, or canceled — so admission accounting cannot
	// leak.
	opts := task.Options{
		Hints: a.hints, Tenant: o.tenant, Weight: o.weight,
		MaxRetries: d.cfg.Retries, Priority: o.priority,
		Timeout: o.timeout, Deadline: o.deadline,
		MemoKeyOverride: o.memoKey, Gate: gate,
	}
	if o.set&optRetries != 0 {
		opts.MaxRetries = o.retries
	}
	if o.executor != "" {
		opts.Hints = []string{o.executor}
	}
	rec, gen := task.Create(id, a.name, kwargs, opts)
	// Publishing the record (watcher, dependency callbacks) lets other
	// goroutines conclude and retire it at any moment; the creator's hold keeps
	// it from being recycled under the wiring below, until Submit returns.
	fut := rec.Future
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() {
			if !rec.Enter(gen) {
				return
			}
			d.cancelTask(rec, fmt.Errorf("%w: %w", ErrCanceled, context.Cause(ctx)))
			rec.Exit()
		})
		// Finish hands the detach function to retirement; a watcher that
		// already fired has nothing left to detach.
		if !rec.Watch(stop) {
			stop()
		}
	}

	// Count dependencies: futures anywhere in args/kwargs, plus staging
	// tasks for unstaged remote files (§4.5).
	n := 0
	eachFuture(args, kwargs, func(*future.Future) { n++ })
	var staged []*future.Future
	if d.cfg.DataManager != nil {
		for _, f := range collectFiles(args, kwargs) {
			if f.Remote() && !f.Staged() {
				staged = append(staged, d.stageInTask(f))
			}
		}
		n += len(staged)
		// Pre-assign local homes for declared remote outputs so the app
		// body knows where to write (§4.5: path translation).
		if outs, ok := kwargs[app.KwOutputs].([]*data.File); ok {
			for _, f := range outs {
				if f.Remote() && !f.Staged() {
					f.SetLocalPath(filepath.Join(
						d.cfg.DataManager.WorkDir(),
						fmt.Sprintf("out_task%06d_%s", id, f.Filename())))
				}
			}
		}
	}

	d.emitState(id, a.name, o.tenant, noState, task.Pending, "")
	if n == 0 {
		pl, l := d.launch(rec, gen, a, args)
		// The hold goes before the push, so the lane runner it wakes does not
		// find the submitter in the record's lock. The attempt needs no hold:
		// it is recycled only once it has concluded its task.
		rec.Exit()
		if l != nil {
			l.push(pl)
		}
		return fut
	}

	// A waiting task launches after Submit returns, so it takes its own copy
	// of both argument lists first: the caller may reuse its slice and its map
	// at once, and InputsReady resolves the futures in the copies. The
	// countdown is set before the first input can fire. The record itself
	// is the DoneHook of every input: an edge stores one interface value in the
	// input's future, and each resolved input is one compare-and-swap on the
	// countdown; only the last one locks the record.
	rec.HoldArgs(args)
	rec.Kwargs = maps.Clone(kwargs)
	rec.WaitInputs(gen, n, (*inputWaiter)(a))
	eachFuture(args, kwargs, func(f *future.Future) { f.SetDoneHook(rec) })
	for _, f := range staged {
		f.SetDoneHook(rec)
	}
	rec.Exit()
	return fut
}

// inputWaiter is an app as the task.InputWaiter of its tasks that wait on
// inputs. Its methods are not App's own: parsl.App aliases App, so they would
// be public API.
type inputWaiter App

// InputsReady implements task.InputWaiter: the last input resolved. It
// replaces every future in the record's own argument copies with its value,
// in place, and launches the task on them: its first attempt is routed and
// pushed on the goroutine that completed the input.
func (w *inputWaiter) InputsReady(rec *task.Record, gen uint32) {
	a := (*App)(w)
	for i, v := range rec.Args {
		rec.Args[i] = resolved(v)
	}
	for k, v := range rec.Kwargs {
		rec.Kwargs[k] = resolved(v)
	}
	if pl, l := a.dfk.launch(rec, gen, a, rec.Args); l != nil {
		l.push(pl)
	}
}

// resolved is v with its futures replaced by their values (they have all
// resolved by the time it runs), one level into a []any, as eachFuture finds
// them. A []any that holds a future is copied, because it is still the
// caller's; one without futures is returned as it is.
func resolved(v any) any {
	switch t := v.(type) {
	case *future.Future:
		return t.Value()
	case []any:
		var cp []any
		for i, e := range t {
			if f, ok := e.(*future.Future); ok {
				if cp == nil {
					cp = slices.Clone(t)
				}
				cp[i] = f.Value()
			}
		}
		if cp != nil {
			return cp
		}
	}
	return v
}

// InputFailed implements task.InputWaiter. An input can fail long after the
// task concluded on another path (another input's failure, cancellation);
// failTask is then a no-op.
func (w *inputWaiter) InputFailed(rec *task.Record, input *future.Future) {
	w.dfk.failTask(rec, &DependencyError{TaskID: rec.ID, DepID: input.TaskID, Err: input.Err()})
}

// stageInTask creates the hidden data-transfer task for a remote file: HTTP
// and FTP transfers run as ordinary tasks on an executor (§4.5).
func (d *DFK) stageInTask(f *data.File) *future.Future {
	dm := d.cfg.DataManager
	// RegisterIfAbsent keeps concurrent first submissions from racing a
	// Lookup-then-Register pair on the shared registry.
	name := "_parsl_stage_in"
	_ = d.registry.RegisterIfAbsent(name, func(args []any, _ map[string]any) (any, error) {
		url, ok := args[0].(string)
		if !ok {
			return nil, fmt.Errorf("dfk: stage-in got %T", args[0])
		}
		file, err := data.NewFile(url)
		if err != nil {
			return nil, err
		}
		return dm.StageIn(file)
	})
	stageApp := &App{dfk: d, name: name, bodyHash: "stage"}
	// The transfer task returns the staged path; record the translation on
	// the original *File here on the submit side, so it survives the
	// executor serialization boundary.
	inner := d.submit(context.Background(), stageApp, []any{f.URL}, nil, callOpts{noAdmission: true})
	return future.Then(inner, func(v any) (any, error) {
		p, ok := v.(string)
		if !ok {
			return nil, fmt.Errorf("dfk: stage-in returned %T", v)
		}
		f.SetLocalPath(p)
		return p, nil
	})
}

// launch takes a ready task's payload exactly once, consults memoization,
// and arms the task's first attempt, returning it with the lane to push it
// onto (nil: nothing to push). args are the resolved positional arguments:
// the caller's slice for a task launched inside Submit, the record's own copy
// for one whose inputs resolved (the record's Kwargs likewise). The payload built here is the task's one copy of
// its arguments for its whole lifetime: the memo hash reads it, in-process
// executors copy their defensive copy from it, remote executors ship its
// bytes verbatim, and retries reuse it; nothing keeps args. Plain values are
// snapshotted (serialize.SnapshotArgs), whatever the executors: the payload
// holds a copy of them, taken here, and its bytes are built only when
// something reads them (the WAL just below, a memo key, a digest, the wire).
// Other arguments are encoded here, which also isolates them from a caller
// that mutates them afterwards.
func (d *DFK) launch(rec *task.Record, gen uint32, a *App, args []any) (*pendingLaunch, *lane) {
	kwargs := rec.Kwargs

	// An explicit per-call memo key turns memoization on for the invocation
	// regardless of how the app was registered; otherwise the key is the
	// hash of app identity and the arguments' canonical encoding (§4.6) —
	// the same payload the executors will consume, so memoization costs no
	// extra encoding.
	var payload *serialize.Payload
	var encErr error
	memoKey := rec.MemoKeyOverride
	if memoKey == "" && a.memoize {
		if payload, encErr = argsPayload(args, kwargs); encErr == nil {
			memoKey = memo.KeyFromPayload(a.name, a.bodyHash, payload)
		}
	}
	if memoKey != "" {
		if v, hit := d.memoizer.Lookup(memoKey); hit {
			// The payload built for the key is never installed on the record;
			// drop its reference here (a memoized task ships no bytes anywhere).
			payload.Release()
			d.finish(rec, task.Memoized, v, nil)
			return nil, nil
		}
		rec.SetMemoKey(memoKey)
	}
	// Only a task that actually has to execute needs encodable arguments —
	// an explicit-key memo hit above is served even for args no executor
	// could accept. Past this point every executor needs the payload
	// (in-process ones for the immutability copy, remote ones for the
	// wire), so fail fast here with the serialization error instead of
	// letting each attempt rediscover it downstream.
	if payload == nil && encErr == nil {
		payload, encErr = argsPayload(args, kwargs)
	}
	if encErr != nil {
		d.failTask(rec, encErr)
		return nil, nil
	}
	// Durably record the submission — payload, memo key, tenant, priority,
	// and retry budget, everything recovery needs to re-admit the task
	// through this same boundary. A memo hit above never reaches the log:
	// it launches nothing, so there is nothing to recover. The hot-path cost
	// with WAL unset is one nil check.
	var walKey int64
	if d.wal != nil {
		k, err := d.wal.Submit(a.name, memoKey, rec.Tenant, rec.Priority,
			rec.Weight, rec.MaxRetries, payload.Bytes())
		if err != nil {
			d.emitWAL(rec.ID, "submit", err)
		} else {
			walKey = k
		}
	}
	pl := attemptPool.Get().(*pendingLaunch)
	*pl = pendingLaunch{
		id: rec.ID, rec: rec, gen: gen, app: a,
		payload: payload.Retain(),
		wireID:  rec.ID, priority: rec.Priority,
		tenant: rec.Tenant, weight: rec.Weight,
		walKey: walKey, walAttempt: 1,
	}
	l, ok := d.firstAttempt(pl)
	if !ok && walKey != 0 {
		// Concluded (canceled) before the key reached the record: no Finish
		// saw it, so the submission logged just above is closed here.
		if err := d.wal.Terminal(walKey, wal.OutcomeFailed, nil); err != nil {
			d.emitWAL(rec.ID, "terminal", err)
		}
	}
	return pl, l
}

// argsPayload is a task's payload: a value snapshot of plain values, else
// their encoding.
func argsPayload(args []any, kwargs map[string]any) (*serialize.Payload, error) {
	if p, ok := serialize.SnapshotArgs(args, kwargs); ok {
		return p, nil
	}
	return serialize.EncodeArgs(args, kwargs)
}

// firstAttempt arms a ready task's first attempt in this process (armAttempt).
// pl.payload carries two references: the attempt's own, released when it
// settles, and the one launch (or recovery) built it with, which the record
// takes over (and releases at retirement). A digest-routing scheduler reads
// the payload's digest here, which builds a value snapshot's bytes. ok is
// false, with both references dropped, when the task had already concluded.
func (d *DFK) firstAttempt(pl *pendingLaunch) (l *lane, ok bool) {
	if d.digestPicker != nil {
		pl.payload.Bytes()
		pl.digest = pl.payload.ArgsHash()
	}
	if l, ok = d.armAttempt(pl); !ok {
		pl.payload.Release()
	}
	return l, ok
}

// cancelTask concludes a task whose submission context was canceled. The
// task future fails with cause (dependents observe a DependencyError as for
// any failure), and the in-flight attempt — if one exists — is concluded so
// its lane entry becomes a recognizable no-op; its completion stage asks its
// executor to drop it (see FutureDone). A no-op on terminal tasks, so
// canceling after completion changes nothing.
func (d *DFK) cancelTask(rec *task.Record, cause error) {
	if !d.failTask(rec, cause) {
		return
	}
	if af := rec.Attempt(); af != nil {
		// Conclude the attempt after failTask: the attempt's completion stage
		// then sees a settled task and neither retries nor double-fails.
		_ = af.SetError(cause)
	}
}

// completeTask concludes a task whose attempt returned v; memoKey ("" = not
// memoized) is the key the result is published under. It reports whether this
// call concluded the task.
func (d *DFK) completeTask(rec *task.Record, memoKey string, v any) bool {
	if memoKey != "" {
		if err := d.memoizer.Store(memoKey, v); err != nil {
			d.emitWAL(rec.ID, "checkpoint", err)
		}
	}
	// Stage out declared outputs before resolving the future, so a
	// consumer that waits on the future sees outputs at their final homes.
	if d.cfg.DataManager != nil {
		if outs, ok := rec.Kwargs[app.KwOutputs].([]*data.File); ok {
			for _, f := range outs {
				if f.Remote() && f.Staged() {
					if err := d.cfg.DataManager.StageOut(f, f.LocalPath()); err != nil {
						return d.failTask(rec, err)
					}
				}
			}
		}
	}
	return d.finish(rec, task.Done, v, nil)
}

// failTask wraps the exception and associates it with the future (§4.1),
// reporting whether this call concluded the task. A no-op on terminal tasks,
// so a stale attempt racing its own retry (or timeout) cannot emit duplicate
// failure events for, or double-retire, a concluded task.
func (d *DFK) failTask(rec *task.Record, err error) bool {
	return d.finish(rec, task.Failed, nil, err)
}

// walOutcomes maps a terminal task state to its durable-log outcome.
var walOutcomes = [...]wal.Outcome{
	task.Done: wal.OutcomeDone, task.Failed: wal.OutcomeFailed, task.Memoized: wal.OutcomeMemoized,
}

// finish is the one terminal path. Record.Finish picks the exactly-once
// winner among racing conclusions (completion, failure, cancellation); the
// winner counts the task in its outcome's tally, emits the state event, closes
// the task's durable-log entry with v, the value recovery resolves a done task
// to (a task that never logged a submission — WAL off, memo hit, pre-payload
// failure — has key 0 and logs nothing), settles the AppFuture with v — or,
// for a failure, with err wrapped in the task's identity — and retires the
// record. The caller holds the record, so its fields stay valid throughout.
func (d *DFK) finish(rec *task.Record, to task.State, v any, err error) bool {
	fin, ok := rec.Finish(to)
	if !ok {
		return false
	}
	// Counted before the future settles, so a program that reads Summary or
	// Outstanding after the task's result sees the task concluded.
	t := &d.terminals[task.Shard(rec.ID)]
	t.n[to-task.Done].Add(1)
	retired := t.total.Add(1)
	d.emitState(rec.ID, rec.AppName, rec.Tenant, fin.From, to, fin.Executor)
	if fin.WALKey != 0 {
		if werr := d.wal.Terminal(fin.WALKey, walOutcomes[to], v); werr != nil {
			d.emitWAL(rec.ID, "terminal", werr)
		}
	}
	if err != nil {
		_ = rec.Future.SetError(fmt.Errorf("dfk: task %d (%s): %w", rec.ID, rec.AppName, err))
	} else {
		_ = rec.Future.SetResult(v)
	}
	// Retirement, after the future settled: detach the cancellation watcher,
	// release the admission gate (the window slot too if the task was armed)
	// and the record's payload reference, retire the record, and count the
	// task done for WaitAll. Dependents observed the future inside
	// SetResult/SetError (done callbacks run synchronously there), so
	// recycling the record afterwards never hides a value a dependent still
	// needs: results live on futures, not records.
	if fin.CancelStop != nil {
		fin.CancelStop()
	}
	if rec.Gate != nil {
		rec.Gate.Release(fin.Payload != nil)
	}
	fin.Payload.Release()
	if retired == 1 || retired%1024 == 0 {
		d.emitRetired(rec.ID, retired)
	}
	// Once its holds drain the retired record is recycled; this caller's hold
	// is what kept rec.ID readable above.
	rec.Retire()
	d.wg.Done()
	return true
}

// emitWAL records a durable-log append error or a failed checkpoint write.
// Post-crash appends (the log froze at an injected boundary) are expected,
// not noteworthy — the frozen log rejects everything by design, so they are
// skipped rather than flooding the monitor.
func (d *DFK) emitWAL(taskID int64, op string, err error) {
	if errors.Is(err, wal.ErrCrashed) {
		return
	}
	d.mon.Emit(monitor.Event{
		Kind:   monitor.KindWAL,
		At:     time.Now(),
		TaskID: taskID,
		Detail: op + ": " + err.Error(),
	})
}

// emitRetired records a reclamation event: emitted on a shard's first
// retired record and every 1024th after, so small runs still observe
// reclamation and million-task runs don't pay a monitor event per task.
func (d *DFK) emitRetired(id int64, retired int64) {
	if !d.monitored {
		return
	}
	d.mon.Emit(monitor.Event{
		Kind:   monitor.KindGraph,
		At:     time.Now(),
		TaskID: id,
		Detail: fmt.Sprintf("shard %d retired %d records, %d outstanding",
			task.Shard(id), retired, d.Outstanding()),
	})
}

// noState is the "from" of a task's first event.
const noState task.State = -1

// emitState records one task state change. With no sink attached it builds
// nothing — no clock read, no state name, no event. An attempt that timed out
// while still queued never left Pending, and its event says "requeued" rather
// than claiming a Retrying transition.
func (d *DFK) emitState(id int64, app, tenant string, from, to task.State, executor string) {
	if !d.monitored {
		return
	}
	ev := monitor.Event{
		Kind:     monitor.KindTaskState,
		At:       time.Now(),
		TaskID:   id,
		App:      app,
		To:       to.String(),
		Executor: executor,
		Tenant:   tenant,
	}
	if from != noState {
		ev.From = from.String()
	}
	if from == task.Pending && to == task.Retrying {
		ev.To = "requeued"
	}
	d.mon.Emit(ev)
}

// emitTenant records an admission outcome ("shed", or "admitted" with the
// time the submitter spent parked) for the monitoring subsystem.
func (d *DFK) emitTenant(tenant, detail string, waited time.Duration) {
	d.mon.Emit(monitor.Event{
		Kind:     monitor.KindTenant,
		At:       time.Now(),
		Tenant:   tenant,
		Detail:   detail,
		Duration: waited,
	})
}

// WaitAll blocks until every submitted task reaches a terminal state.
func (d *DFK) WaitAll() { d.wg.Wait() }

// Outstanding returns the number of tasks submitted and not yet terminal.
func (d *DFK) Outstanding() int {
	// The tallies are read before created: every task they count was created
	// first, so the difference never goes negative.
	var concluded int64
	for i := range d.terminals {
		concluded += d.terminals[i].total.Load()
	}
	return int(d.created.Load() - concluded)
}

// Summary counts concluded tasks under three keys, "done", "failed" and
// "memoized", for program-end reporting. A live task's state is in the
// monitor stream, not here.
func (d *DFK) Summary() map[string]int {
	var n [3]int64
	for i := range d.terminals {
		for k := range n {
			n[k] += d.terminals[i].n[k].Load()
		}
	}
	return map[string]int{"done": int(n[0]), "failed": int(n[1]), "memoized": int(n[2])}
}

// Shutdown waits for outstanding tasks, then stops executors in config order
// and closes the checkpoint and monitor.
func (d *DFK) Shutdown() error {
	d.mu.Lock()
	if d.shutdown {
		d.mu.Unlock()
		return nil
	}
	d.shutdown = true
	d.mu.Unlock()

	// Every task's future completes only after its final launch attempt, so
	// once wg drains no live task can push to a lane again; closing the
	// lanes then lets their runners drain and exit.
	d.wg.Wait()
	for _, l := range d.lanes {
		close(l.done)
	}
	d.laneWG.Wait()
	var first error
	for _, l := range d.views {
		if err := l.Shutdown(); err != nil && first == nil {
			first = err
		}
	}
	if err := d.memoizer.Close(); err != nil && first == nil {
		first = err
	}
	if d.wal != nil {
		if err := d.wal.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := d.mon.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// eachFuture calls fn on the futures anywhere in the argument lists, including
// inside []any slices (one level, matching Parsl's treatment of list args).
func eachFuture(args []any, kwargs map[string]any, fn func(*future.Future)) {
	visit := func(v any) {
		switch t := v.(type) {
		case *future.Future:
			fn(t)
		case []any:
			for _, e := range t {
				if f, ok := e.(*future.Future); ok {
					fn(f)
				}
			}
		}
	}
	for _, a := range args {
		visit(a)
	}
	for _, v := range kwargs {
		visit(v)
	}
}

// collectFiles finds data files in args/kwargs including the inputs/outputs
// keyword lists.
func collectFiles(args []any, kwargs map[string]any) []*data.File {
	var out []*data.File
	add := func(v any) {
		switch t := v.(type) {
		case *data.File:
			out = append(out, t)
		case []*data.File:
			out = append(out, t...)
		case []any:
			for _, e := range t {
				if f, ok := e.(*data.File); ok {
					out = append(out, f)
				}
			}
		}
	}
	for _, a := range args {
		add(a)
	}
	for k, v := range kwargs {
		if k == app.KwOutputs {
			continue // outputs are produced, not consumed
		}
		add(v)
	}
	return out
}
