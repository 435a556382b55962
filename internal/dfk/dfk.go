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
	"path/filepath"
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
	// the ready task enters the dispatch queue — queue wait behind a
	// backlogged executor counts (0 = no timeout).
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
	// DispatchBatch caps ready tasks drained per dispatch cycle and so the
	// largest batch handed to an executor in one call (default 256).
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
	cfg       Config
	registry  *serialize.Registry
	memoizer  *memo.Memoizer
	wal       *wal.Log // nil unless Config.WAL
	mon       monitor.Sink
	executors map[string]executor.Executor
	execList  []executor.Executor // config order, for the scheduler
	// monitored is decided once, in New: without a sink attached the per-task
	// emit points return before building (or timestamping) an event.
	monitored bool

	schedr        sched.Scheduler
	schedUsesLoad bool
	// digestPicker is schedr when it is a sched.DigestPicker, resolved once in
	// New; it also gates the per-attempt input-digest computation (ArgsHash
	// allocates a string, so digest-blind configs must never pay for it).
	digestPicker sched.DigestPicker
	queue        *fair.MPSC[*pendingLaunch]
	lanes        map[string]*lane
	batchMax     int
	// hp is the self-healing retry plane; nil unless Config.Health is set.
	hp *healthPlane
	// adm bounds each tenant at the submission boundary: its window of ready
	// tasks always, its live tasks when a quota is configured.
	adm        *fair.Admission
	dispatchWG sync.WaitGroup
	laneWG     sync.WaitGroup

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
		cfg:       cfg,
		registry:  reg,
		executors: make(map[string]executor.Executor, len(cfg.Executors)),
		queue:     fair.NewMPSC(func(pl *pendingLaunch) string { return pl.tenant }),
		batchMax:  cfg.DispatchBatch,
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
	if la, ok := d.schedr.(sched.LoadAware); ok && la.UsesLoad() {
		d.schedUsesLoad = true
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
		for _, ex := range d.execList {
			_ = ex.Shutdown()
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
		// the log freezes at, so a simulated crash leaves both durable
		// layers consistent (see the contract in internal/memo).
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
		if _, dup := d.executors[ex.Label()]; dup {
			return abort(fmt.Errorf("dfk: duplicate executor label %q", ex.Label()))
		}
		if err := ex.Start(); err != nil {
			// A Start that fails half way (interchanges up, scale-out
			// refused) has goroutines of its own, and the executor never
			// joined execList for abort to find it.
			_ = ex.Shutdown()
			return abort(fmt.Errorf("dfk: start executor %s: %w", ex.Label(), err))
		}
		d.executors[ex.Label()] = ex
		d.execList = append(d.execList, ex)
	}
	d.lanes = make(map[string]*lane, len(d.execList))
	for _, ex := range d.execList {
		l := newLane(ex)
		d.lanes[ex.Label()] = l
		d.laneWG.Add(1)
		go d.laneRunner(l)
	}
	if cfg.Health != nil {
		d.hp = newHealthPlane(d, cfg.Health)
	}
	d.dispatchWG.Add(1)
	go d.dispatcher()
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
	ex, ok := d.executors[label]
	return ex, ok
}

// Scheduler exposes the active executor-selection policy.
func (d *DFK) Scheduler() sched.Scheduler { return d.schedr }

// Loads samples live load signals from every configured executor, in config
// order — exactly the sample the capacity-aware router decides from, so
// Outstanding includes the tasks routed to the executor's lane but not yet
// submitted.
func (d *DFK) Loads() []sched.Load {
	out := make([]sched.Load, len(d.execList))
	for i, ex := range d.execList {
		out[i] = sched.LoadOf(d.freeze(ex))
	}
	return out
}

// freeze samples ex's load as the router sees it: the executor's own signals
// plus its lane's routed-but-unsubmitted backlog, which the executor's
// Outstanding cannot see yet.
func (d *DFK) freeze(ex executor.Executor) *sched.Frozen {
	return sched.Freeze(ex, int(d.lanes[ex.Label()].queued.Load()))
}

// TenantBacklog reports the client-side backlog per tenant (key "" is the
// default tenant): tasks in the routing queue plus those routed to an
// executor lane but not yet submitted. Empty when nothing is queued.
func (d *DFK) TenantBacklog() map[string]int {
	out := d.queue.PerTenant()
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
		if _, ok := d.executors[h]; !ok {
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
// returning the AppFuture. Futures among the args become dependencies.
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

// SubmitKw is Submit with keyword arguments.
func (a *App) SubmitKw(ctx context.Context, kwargs map[string]any, args []any, opts ...CallOption) *future.Future {
	if len(opts) == 0 {
		// Option-free fast path: &o below escapes into the opaque option
		// funcs, heap-allocating on every call; plain submissions skip it.
		return a.dfk.submit(ctx, a, args, kwargs, callOpts{})
	}
	var o callOpts
	for _, opt := range opts {
		opt(&o)
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
	if o.retries != nil {
		opts.MaxRetries = *o.retries
	}
	if o.executor != "" {
		opts.Hints = []string{o.executor}
	}
	rec, gen := task.Create(id, a.name, args, kwargs, opts)
	// Publishing the record (watcher, dependency callbacks) lets other
	// goroutines conclude and retire it at any moment; the creator's hold keeps
	// it from being recycled under the wiring below.
	defer rec.Exit()
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
		d.launch(rec, gen, a)
		return fut
	}

	// The countdown is set before the first input can fire. The record itself
	// is the DoneHook of every input: an edge stores one interface value in the
	// input's future, and each resolved input is one compare-and-swap on the
	// countdown; only the last one locks the record.
	rec.WaitInputs(gen, n, (*inputWaiter)(a))
	eachFuture(args, kwargs, func(f *future.Future) { f.SetDoneHook(rec) })
	for _, f := range staged {
		f.SetDoneHook(rec)
	}
	return fut
}

// inputWaiter is an app as the task.InputWaiter of its tasks that wait on
// inputs. Its methods are not App's own: parsl.App aliases App, so they would
// be public API.
type inputWaiter App

// InputsReady implements task.InputWaiter: the last input resolved.
func (w *inputWaiter) InputsReady(rec *task.Record, gen uint32) {
	a := (*App)(w)
	a.dfk.launch(rec, gen, a)
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

// launch resolves dependencies into concrete values, serializes them exactly
// once, consults memoization, and hands the ready task to the dispatch
// pipeline, which schedules it onto an executor and submits it batched with
// other ready tasks. The encode-once payload built here is the only
// serialization of the arguments for the task's whole lifetime: the memo
// hash reads it, in-process executors decode their defensive copy from it,
// remote executors ship it verbatim, and retries reuse it.
func (d *DFK) launch(rec *task.Record, gen uint32, a *App) {
	args, kwargs := resolveArgs(rec.Args, rec.Kwargs)

	// An explicit per-call memo key turns memoization on for the invocation
	// regardless of how the app was registered; otherwise the key is the
	// hash of app identity and the encode-once arguments (§4.6) — the same
	// payload the executors will consume, so memoization costs no extra
	// encoding.
	var payload *serialize.Payload
	var encErr error
	memoKey := rec.MemoKeyOverride
	if memoKey == "" && a.memoize {
		if payload, encErr = serialize.EncodeArgs(args, kwargs); encErr == nil {
			memoKey = memo.KeyFromPayload(a.name, a.bodyHash, payload)
		}
	}
	if memoKey != "" {
		if v, hit := d.memoizer.Lookup(memoKey); hit {
			// The payload built for the key is never installed on the record;
			// drop its reference here (a memoized task ships no bytes anywhere).
			payload.Release()
			d.finish(rec, task.Memoized, v, nil)
			return
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
		payload, encErr = serialize.EncodeArgs(args, kwargs)
	}
	if encErr != nil {
		d.failTask(rec, encErr)
		return
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
		id: rec.ID, rec: rec, gen: gen, app: a, args: args, kwargs: kwargs,
		payload: payload.Retain(),
		wireID:  rec.ID, priority: rec.Priority,
		tenant: rec.Tenant, weight: rec.Weight,
		walKey: walKey, walAttempt: 1,
	}
	if !d.firstAttempt(pl) && walKey != 0 {
		// Concluded (canceled) before the key reached the record: no Finish
		// saw it, so the submission logged just above is closed here.
		if err := d.wal.Terminal(walKey, wal.OutcomeFailed, nil); err != nil {
			d.emitWAL(rec.ID, "terminal", err)
		}
	}
}

// firstAttempt arms and enqueues a ready task's first attempt in this process.
// pl.payload carries two references: the attempt's own, released when it
// settles, and the EncodeArgs one, which the record takes over (and releases
// at retirement). It reports false, with both dropped, when the task concluded
// before it could be armed.
func (d *DFK) firstAttempt(pl *pendingLaunch) bool {
	if d.digestPicker != nil {
		pl.digest = pl.payload.ArgsHash()
	}
	if d.enqueueAttempt(pl) {
		return true
	}
	pl.payload.Release()
	return false
}

// cancelTask concludes a task whose submission context was canceled. The
// task future fails with cause (dependents observe a DependencyError as for
// any failure), the in-flight attempt — if one exists — is concluded so its
// lane entry becomes a recognizable no-op, and the executor is asked to drop
// the attempt when it already crossed the submission boundary and the
// executor supports cancellation. A no-op on terminal tasks, so canceling
// after completion changes nothing.
func (d *DFK) cancelTask(rec *task.Record, cause error) {
	if !d.failTask(rec, cause) {
		return
	}
	if af, wire, label := rec.Attempt(); af != nil {
		// Conclude the attempt after failTask: the attempt's completion stage
		// then sees a settled task and neither retries nor double-fails.
		_ = af.SetError(cause)
		if c, ok := d.executors[label].(executor.Canceler); ok {
			c.Cancel(wire)
		}
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

// router picks executors for the tasks of one dispatch cycle. For
// load-aware schedulers it samples every executor's load once per cycle
// (seeded with the lane backlogs) and overlays its own routing decisions
// via Frozen.Bump, so a 256-task batch costs one probe sweep rather than
// 256 — load-blind policies skip the snapshot entirely. The dispatcher owns
// one router for its lifetime and resets it each cycle, so routing
// allocates nothing of its own.
type router struct {
	d      *DFK
	base   []executor.Executor      // full candidate set, frozen or raw
	frozen map[string]*sched.Frozen // nil for load-blind schedulers
	// cands is the scratch a hinted or sticky task's candidates are built
	// in; each pick overwrites it.
	cands []executor.Executor
}

func (d *DFK) newRouter() *router {
	r := &router{d: d, base: d.execList}
	if d.schedUsesLoad {
		r.frozen = make(map[string]*sched.Frozen, len(d.execList))
		r.base = make([]executor.Executor, len(d.execList))
		for i, ex := range d.execList {
			f := new(sched.Frozen)
			r.frozen[ex.Label()] = f
			r.base[i] = f
		}
	}
	return r
}

// reset starts a dispatch cycle: a load-aware router samples every executor
// again, as freeze does, into the snapshots it already holds.
func (r *router) reset() {
	if r.frozen == nil {
		return
	}
	for _, ex := range r.d.execList {
		label := ex.Label()
		*r.frozen[label] = *sched.Freeze(ex, int(r.d.lanes[label].queued.Load()))
	}
}

// pick applies hints to narrow the eligible set and delegates the choice
// to the configured scheduler (the paper's "picked at random" policy is
// the default); a sched.DigestPicker additionally sees the task's input
// digest. With the health plane on, candidates whose circuit
// breakers reject work are filtered out first: an all-open set yields
// ErrNoHealthyExecutor (which the dispatcher converts into an overload
// park, not a task failure) unless the task is pinned and PinnedFailFast
// demands an immediate permanent failure; a retry with stick affinity
// prefers the executor its last attempt failed on while the breaker admits
// it. The returned executor is always one of the DFK's real executors,
// never a snapshot view.
func (r *router) pick(pl *pendingLaunch) (executor.Executor, error) {
	hints := pl.rec.Hints
	candidates := r.base
	if len(hints) > 0 {
		candidates = r.cands[:0]
		for _, h := range hints {
			if _, ok := r.d.executors[h]; !ok {
				return nil, fmt.Errorf("dfk: hinted executor %q not configured", h)
			}
			candidates = append(candidates, r.view(h))
		}
		r.cands = candidates
	} else if pl.stick != "" && r.d.hp != nil && r.d.hp.routable(pl.stick) {
		candidates = append(r.cands[:0], r.view(pl.stick))
		r.cands = candidates
	}
	if r.d.hp != nil {
		filtered, ok := r.d.hp.filterRoutable(candidates)
		if !ok {
			if len(hints) > 0 && r.d.hp.pinnedFailFast {
				// Deliberately does not wrap ErrNoHealthyExecutor: this is a
				// permanent failure, not a parkable overload.
				return nil, fmt.Errorf("dfk: pinned executor %q circuit open (fail-fast)", hints[0])
			}
			return nil, health.ErrNoHealthyExecutor
		}
		candidates = filtered
	}
	var ex executor.Executor
	var err error
	if r.d.digestPicker != nil {
		ex, err = r.d.digestPicker.PickDigest(candidates, pl.digest)
	} else {
		ex, err = r.d.schedr.Pick(candidates)
	}
	if err != nil {
		return nil, fmt.Errorf("dfk: %w", err)
	}
	// Guard user-supplied schedulers: a Pick that fabricates an executor
	// outside the configured set must fail the task, not nil-deref the
	// dispatcher goroutine.
	real, ok := r.d.executors[ex.Label()]
	if !ok {
		return nil, fmt.Errorf("dfk: scheduler %q picked unknown executor %q", r.d.schedr.Name(), ex.Label())
	}
	if r.frozen != nil {
		r.frozen[real.Label()].Bump()
	}
	if r.d.hp != nil {
		r.d.hp.acquire(real.Label())
	}
	return real, nil
}

// view is the executor labelled label as the scheduler sees it this cycle:
// its snapshot for a load-aware scheduler, the executor itself otherwise.
func (r *router) view(label string) executor.Executor {
	if r.frozen != nil {
		return r.frozen[label]
	}
	return r.d.executors[label]
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

// Shutdown waits for outstanding tasks, then stops executors and closes the
// checkpoint and monitor.
func (d *DFK) Shutdown() error {
	d.mu.Lock()
	if d.shutdown {
		d.mu.Unlock()
		return nil
	}
	d.shutdown = true
	d.mu.Unlock()

	// Every task's future completes only after its final launch attempt, so
	// once wg drains nothing can push to the dispatch queue again; closing
	// it then lets the dispatcher drain and exit, after which the lanes can
	// no longer receive work and are drained the same way.
	d.wg.Wait()
	d.queue.Close()
	d.dispatchWG.Wait()
	for _, l := range d.lanes {
		l.queue.Close()
	}
	d.laneWG.Wait()
	var first error
	for _, ex := range d.executors {
		if err := ex.Shutdown(); err != nil && first == nil {
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

// resolveArgs replaces futures with their resolved values (deps are done by
// the time this runs), recursing one level into []any. Argument lists with
// no futures anywhere — the common case, and the whole hot path of a
// dependency-free workload — are returned as-is without copying: the
// encode-once payload, not the arg slice, is what isolates executors from
// the submitting program.
func resolveArgs(args []any, kwargs map[string]any) ([]any, map[string]any) {
	dirty := false
	eachFuture(args, kwargs, func(*future.Future) { dirty = true })
	if !dirty {
		return args, kwargs
	}
	res := func(v any) any {
		switch t := v.(type) {
		case *future.Future:
			return t.Value()
		case []any:
			cp := make([]any, len(t))
			for i, e := range t {
				if f, ok := e.(*future.Future); ok {
					cp[i] = f.Value()
				} else {
					cp[i] = e
				}
			}
			return cp
		default:
			return v
		}
	}
	outArgs := make([]any, len(args))
	for i, a := range args {
		outArgs[i] = res(a)
	}
	var outKw map[string]any
	if kwargs != nil {
		outKw = make(map[string]any, len(kwargs))
		for k, v := range kwargs {
			outKw[k] = res(v)
		}
	}
	return outArgs, outKw
}
