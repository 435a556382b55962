// Package parsl is a Go reproduction of Parsl (Babuji et al., "Parsl:
// Pervasive Parallel Programming in Python", HPDC 2019): a parallel
// scripting library built around two constructs — Apps (functions that run
// asynchronously, possibly remotely) and Futures (single-update result
// handles) — executed by a DataFlowKernel over an extensible family of
// executors (thread pool, high-throughput, extreme-scale, low-latency) and
// resource providers (local, batch schedulers, clouds).
//
// Quick start:
//
//	d, _ := parsl.NewLocal(4)          // 4-worker thread-pool DFK
//	defer d.Shutdown()
//	hello, _ := d.PythonApp("hello", func(args []any, _ map[string]any) (any, error) {
//	    return "Hello " + args[0].(string), nil
//	})
//	ctx := context.Background()
//	fut := hello.Submit(ctx, []any{"World"})   // returns immediately
//	v, _ := fut.ResultCtx(ctx)                 // blocks for the result
//
// Submissions are context-aware: canceling ctx cancels the task (and fails
// its dependents with a DependencyError), and per-call options tune one
// invocation — parsl.WithPriority(10) jumps a backlogged dispatch lane,
// WithTimeout/WithDeadline bound the attempt, WithExecutor pins it, and
// WithRetries/WithMemoKey override the DFK-wide defaults. For compile-time
// types, wrap an app with the generic adapters:
//
//	greet := parsl.Typed1[string, string](hello)
//	msg, _ := greet(ctx, "World").Result(ctx)  // msg is a string
//
// App.Call remains as a minimal shim over Submit with a background context.
// See examples/ for dataflow composition, Bash apps, file staging, and
// elastic execution on the simulated cluster substrate.
package parsl

import (
	"fmt"
	"time"

	"repro/internal/app"
	"repro/internal/data"
	"repro/internal/dfk"
	"repro/internal/executor"
	"repro/internal/executor/exex"
	"repro/internal/executor/htex"
	"repro/internal/executor/llex"
	"repro/internal/executor/threadpool"
	"repro/internal/future"
	"repro/internal/health"
	"repro/internal/monitor"
	"repro/internal/provider"
	"repro/internal/sched"
	"repro/internal/serialize"
	"repro/internal/simnet"
)

// Re-exported core types, so programs only import this package.
type (
	// DFK is the DataFlowKernel (§4.1).
	DFK = dfk.DFK
	// Config configures a DFK (§3.5: separation of code and configuration).
	Config = dfk.Config
	// App is an invocable Parsl app (§3.1.1).
	App = dfk.App
	// Future is the single-update result handle (§3.1.2).
	Future = future.Future
	// File is a location-independent file reference (§4.5).
	File = data.File
	// BashResult is what Bash apps resolve to.
	BashResult = app.BashResult
	// Registry maps app names to functions for worker-side resolution.
	Registry = serialize.Registry
	// Fn is the executable app signature.
	Fn = serialize.Fn
	// Scheduler picks an executor for each ready task. Set Config.Scheduler
	// (or Config.SchedulerPolicy by name) to replace the paper's random
	// selection with round-robin or capacity-aware routing.
	Scheduler = sched.Scheduler
	// SchedulerLoad is one executor's live load signal set.
	SchedulerLoad = sched.Load
	// CallOption customizes one App.Submit/SubmitKw invocation.
	CallOption = dfk.CallOption
	// DependencyError is set on a task's future when a dependency failed
	// (including when the dependency's submission context was canceled).
	DependencyError = dfk.DependencyError
	// HealthOptions enables the self-healing retry plane via Config.Health:
	// typed failure classification with per-class retry policies, backoff
	// with deterministic jitter, per-executor circuit breakers, and
	// poison-task quarantine. Nil disables the plane (the default); the zero
	// value enables it with defaults.
	HealthOptions = health.Options
	// HealthPolicy is one failure class's retry policy (charge the budget or
	// not, backoff curve, failover eligibility).
	HealthPolicy = health.Policy
	// BreakerConfig tunes the per-executor circuit breakers.
	BreakerConfig = health.BreakerConfig
	// QuarantineError is the permanent failure a poison task concludes with:
	// its attempts killed QuarantineAfter distinct managers; Kills carries
	// the history. Detect with errors.As.
	QuarantineError = health.QuarantineError
)

// Re-exported constructors and options.
var (
	// New builds a DFK from a Config.
	New = dfk.New
	// NewFile parses a file URL (file://, http(s)://, ftp://).
	NewFile = data.NewFile
	// MustFile is NewFile or panic.
	MustFile = data.MustFile
	// NewRegistry creates an app registry.
	NewRegistry = serialize.NewRegistry
	// WithMemoize, WithExecutors, WithVersion, WithBashOptions customize
	// app registration.
	WithMemoize     = dfk.WithMemoize
	WithExecutors   = dfk.WithExecutors
	WithVersion     = dfk.WithVersion
	WithBashOptions = dfk.WithBashOptions
	// Per-call options for App.Submit/SubmitKw: dispatch priority, executor
	// pinning, attempt deadlines/timeouts, retry budget, and explicit memo
	// keys — each overriding the registration-time or DFK-wide default for
	// one invocation.
	WithPriority = dfk.WithPriority
	WithExecutor = dfk.WithExecutor
	WithDeadline = dfk.WithDeadline
	WithTimeout  = dfk.WithTimeout
	WithRetries  = dfk.WithRetries
	WithMemoKey  = dfk.WithMemoKey
	// WithTenant attributes one submission to a fair-queuing tenant with a
	// DRR weight: every queue the task waits in serves tenants in proportion
	// to their weights, and Config.MaxTasksPerTenant/TenantQuotas bound each
	// tenant's live tasks (blocking or shedding per Config.OverloadPolicy).
	WithTenant = dfk.WithTenant
	// NewMonitorStore creates the in-memory monitoring sink.
	NewMonitorStore = monitor.NewStore
	// MapReduce and Chain are the §7 "constructs for delivering
	// parallelism" extensions.
	MapReduce = dfk.MapReduce
	Chain     = dfk.Chain
	// NewBarrier is the §7 "additional synchronization primitives"
	// extension: a reusable completion barrier over futures.
	NewBarrier = future.NewBarrier
	// WaitAll blocks on a set of futures, returning the first error;
	// WaitAllCtx stops early when the context is done.
	WaitAll    = future.Wait
	WaitAllCtx = future.WaitCtx
	// AsCompleted yields futures in completion order; AsCompletedCtx stops
	// the iteration early when the context is done.
	AsCompleted    = future.AsCompleted
	AsCompletedCtx = future.AsCompletedCtx
	// Scheduler constructors: NewRandomScheduler is the paper-faithful
	// default (seedable), NewRoundRobinScheduler cycles deterministically,
	// and NewLeastOutstandingScheduler routes by live outstanding-per-worker
	// load. SchedulerByName resolves the Config.SchedulerPolicy strings.
	NewRandomScheduler           = sched.NewRandom
	NewRoundRobinScheduler       = sched.NewRoundRobin
	NewLeastOutstandingScheduler = sched.NewLeastOutstanding
	// NewLocalityScheduler routes each task to an executor already holding
	// its input digest (recorded by HTEX interchanges as results return),
	// falling back to least-outstanding on a cold digest.
	NewLocalityScheduler = sched.NewLocality
	SchedulerByName      = sched.ByName
)

// Barrier is the reusable multi-future barrier (future work §7).
type Barrier = future.Barrier

// Cancellation sentinels: a task canceled through its submission context
// fails with an error wrapping ErrSubmissionCanceled (and the context's own
// error, so errors.Is(err, context.Canceled) holds as well); a future
// settled directly by Cancel carries ErrFutureCanceled.
var (
	ErrSubmissionCanceled = dfk.ErrCanceled
	ErrFutureCanceled     = future.ErrCanceled
)

// ErrTaskTimeout is wrapped into task failures caused by Config.TaskTimeout
// or the per-call WithTimeout/WithDeadline options, so callers can
// distinguish "too slow" from "broken" with errors.Is.
var ErrTaskTimeout = dfk.ErrTimeout

// ErrOverloaded is set on the returned future when a submission exceeds its
// tenant's admission quota under the shed policy (Config.OverloadPolicy =
// OverloadShed). Detect it with errors.Is and retry later or elsewhere.
var ErrOverloaded = dfk.ErrOverloaded

// Overload policies for Config.OverloadPolicy: block the submitter until
// quota frees (backpressure) or shed with ErrOverloaded (load shedding).
const (
	OverloadBlock = dfk.OverloadBlock
	OverloadShed  = dfk.OverloadShed
)

// NewLocal builds the simplest useful deployment: a DFK over an in-process
// thread-pool executor with n workers — the laptop configuration.
func NewLocal(n int) (*DFK, error) {
	reg := serialize.NewRegistry()
	tp := threadpool.New("local", n, reg)
	return dfk.New(dfk.Config{Registry: reg, Executors: []executor.Executor{tp}})
}

// NewLocalMulti builds a DFK over several thread pools — one per entry in
// workersPerPool — selected by the named scheduling policy ("random",
// "round-robin", "least-outstanding"). The smallest deployment where the
// scheduler choice is observable.
func NewLocalMulti(policy string, workersPerPool ...int) (*DFK, error) {
	if len(workersPerPool) == 0 {
		return nil, fmt.Errorf("parsl: NewLocalMulti needs at least one pool")
	}
	reg := serialize.NewRegistry()
	exs := make([]executor.Executor, len(workersPerPool))
	for i, n := range workersPerPool {
		exs[i] = threadpool.New(fmt.Sprintf("local-%d", i), n, reg)
	}
	return dfk.New(dfk.Config{Registry: reg, Executors: exs, SchedulerPolicy: policy})
}

// NewLocalHTEX builds a DFK over a full HTEX deployment (interchange,
// managers, workers) running on an in-memory network with a local provider —
// the configuration the quickstart example and the latency benchmarks use.
func NewLocalHTEX(nodes, workersPerNode int) (*DFK, error) {
	return NewLocalHTEXOpts(HTEXOptions{Nodes: nodes, WorkersPerNode: workersPerNode})
}

// HTEXOptions parameterizes NewLocalHTEXOpts. The zero value for any field
// keeps that knob's default; heartbeat knobs that cannot work together
// (threshold at or below the check period, or a manager pinging slower than
// the interchange's loss threshold) are rejected at DFK construction.
type HTEXOptions struct {
	// Nodes is managers per block (default 1).
	Nodes int
	// WorkersPerNode is worker goroutines per manager (default 1); prefetch
	// matches it.
	WorkersPerNode int
	// HeartbeatPeriod is how often the interchange checks manager liveness
	// (default 200ms).
	HeartbeatPeriod time.Duration
	// HeartbeatThreshold is manager silence after which the interchange
	// declares it lost and reports its tasks LOST (default 5× the period).
	HeartbeatThreshold time.Duration
	// ManagerHeartbeatPeriod is how often each manager pings the interchange
	// (default 200ms). Must stay below HeartbeatThreshold.
	ManagerHeartbeatPeriod time.Duration
	// Shards is how many interchange shards form the executor's control
	// plane (default 1 — the paper's single broker). With N > 1, managers
	// and tasks are placed across N interchanges by rendezvous hash
	// (tenant-affine) and one shard's death requeues only its own
	// outstanding tasks while the others keep draining.
	Shards int
	// Locality lets each interchange shard prefer dispatching a task to a
	// manager already holding the task's input digest (data-aware
	// dispatch). Off by default — dispatch is byte-identical to the
	// locality-blind path.
	Locality bool
}

// NewLocalHTEXOpts is NewLocalHTEX with the deployment knobs exposed — in
// particular the interchange heartbeat threshold and manager heartbeat
// period, which the two-argument facade cannot reach.
func NewLocalHTEXOpts(o HTEXOptions) (*DFK, error) {
	nodes := o.Nodes
	if nodes <= 0 {
		nodes = 1
	}
	workers := o.WorkersPerNode
	if workers <= 0 {
		workers = 1
	}
	reg := serialize.NewRegistry()
	ex := htex.New(htex.Config{
		Label:      "htex",
		Transport:  simnet.NewNetwork(0),
		Registry:   reg,
		Provider:   provider.NewLocal(provider.Config{NodesPerBlock: nodes}),
		InitBlocks: 1,
		Manager: htex.ManagerConfig{
			Workers: workers, Prefetch: workers,
			HeartbeatPeriod: o.ManagerHeartbeatPeriod,
		},
		Interchange: htex.InterchangeConfig{
			HeartbeatPeriod:    o.HeartbeatPeriod,
			HeartbeatThreshold: o.HeartbeatThreshold,
			Locality:           o.Locality,
		},
		Shards: o.Shards,
	})
	return dfk.New(dfk.Config{Registry: reg, Executors: []executor.Executor{ex}})
}

// NewLocalLLEX builds a DFK over a Low Latency Executor with n directly
// connected workers.
func NewLocalLLEX(n int) (*DFK, error) {
	reg := serialize.NewRegistry()
	ex := llex.New(llex.Config{Label: "llex", Registry: reg, Workers: n})
	return dfk.New(dfk.Config{Registry: reg, Executors: []executor.Executor{ex}})
}

// NewLocalEXEX builds a DFK over an Extreme Scale Executor with `pools` MPI
// worker pools of `ranks` ranks each.
func NewLocalEXEX(pools, ranks int) (*DFK, error) {
	reg := serialize.NewRegistry()
	ex := exex.New(exex.Config{
		Label:      "exex",
		Registry:   reg,
		Provider:   provider.NewLocal(provider.Config{NodesPerBlock: pools}),
		InitBlocks: 1,
		Pool:       exex.PoolConfig{Ranks: ranks},
	})
	return dfk.New(dfk.Config{Registry: reg, Executors: []executor.Executor{ex}})
}

// RecommendExecutor encodes the Fig. 7 guidelines for selecting a Parsl
// executor from node count, task duration, and latency sensitivity:
//
//	LLEX for short interactive computations on ≤10 nodes.
//	HTEX for batch computations on ≤1000 nodes
//	     (for good performance, taskDur/nodes ≥ 0.01 s).
//	EXEX for batch computations on >1000 nodes,
//	     but only for task durations ≥ 1 min.
//
// The duration thresholds are part of the recommendation, not just the fit
// check: an "interactive" workload of minute-long tasks gains nothing from
// LLEX's low-latency path, and EXEX's MPI fan-out costs more than it returns
// below minute-scale tasks, so both fall back to HTEX. taskDur zero means
// "unknown" and leaves only the node/interactivity axes.
func RecommendExecutor(nodes int, taskDur time.Duration, interactive bool) string {
	shortTask := taskDur == 0 || taskDur < time.Minute
	if interactive && nodes <= 10 && shortTask {
		return "llex"
	}
	if nodes > 1000 && taskDur >= time.Minute {
		return "exex"
	}
	return "htex"
}

// CheckExecutorFit reports whether the chosen executor meets Fig. 7's
// performance guidance, returning a human-readable warning when it does not.
func CheckExecutorFit(label string, nodes int, taskDur time.Duration) (bool, string) {
	switch label {
	case "llex":
		if nodes > 10 {
			return false, fmt.Sprintf("llex targets <=10 nodes, got %d", nodes)
		}
	case "htex":
		if nodes > 1000 {
			return false, fmt.Sprintf("htex targets <=1000 nodes, got %d", nodes)
		}
		if nodes > 0 && taskDur.Seconds()/float64(nodes) < 0.01 {
			return false, fmt.Sprintf(
				"htex wants task-duration/nodes >= 0.01 (e.g., on 10 nodes, tasks >= 0.1s); got %.4f",
				taskDur.Seconds()/float64(nodes))
		}
	case "exex":
		if taskDur < time.Minute {
			return false, fmt.Sprintf("exex wants task durations >= 1 min, got %v", taskDur)
		}
	default:
		return false, fmt.Sprintf("unknown executor %q", label)
	}
	return true, ""
}

// Version identifies this reproduction.
const Version = "parsl-go 0.9 (HPDC'19 reproduction)"
