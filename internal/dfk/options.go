package dfk

import "time"

// CallOption customizes one submission (App.Submit/SubmitKw). Registration
// options (AppOption) set per-app defaults; CallOptions override them per
// invocation and ride on the task record through the dispatch pipeline.
//
// A CallOption is a value, not a func: the per-call fields it sets and their
// values. Submit copies them into its own options with a direct call, which
// keeps those on the submitting goroutine's stack (a func taking a pointer to
// them would make them escape: one heap object per submission).
type CallOption struct{ o callOpts }

// optField is a set of callOpts fields: the ones a CallOption sets, and the
// ones a submission's options hold.
type optField uint8

const (
	optPriority optField = 1 << iota
	optExecutor
	optDeadline
	optTimeout
	optRetries
	optMemoKey
	optTenant // tenant and weight
)

type callOpts struct {
	priority int
	executor string
	deadline time.Time
	timeout  time.Duration
	retries  int
	memoKey  string
	tenant   string
	weight   int
	// noAdmission marks DFK-internal submissions (hidden stage-in tasks)
	// that must bypass tenant admission: the user task that spawned them
	// already holds a quota slot and cannot release it until they finish,
	// so admitting them against the same tenant could self-deadlock under
	// the block policy (or spuriously shed them under shed).
	noAdmission bool
	// set is the fields set: by a CallOption, the ones it carries; in a
	// submission's options, the ones some option set.
	set optField
}

// apply copies the fields c sets into o, a later option overriding an
// earlier one.
func (o *callOpts) apply(c *CallOption) {
	s := c.o.set
	if s&optPriority != 0 {
		o.priority = c.o.priority
	}
	if s&optExecutor != 0 {
		o.executor = c.o.executor
	}
	if s&optDeadline != 0 {
		o.deadline = c.o.deadline
	}
	if s&optTimeout != 0 {
		o.timeout = c.o.timeout
	}
	if s&optRetries != 0 {
		o.retries = c.o.retries
	}
	if s&optMemoKey != 0 {
		o.memoKey = c.o.memoKey
	}
	if s&optTenant != 0 {
		o.tenant, o.weight = c.o.tenant, c.o.weight
	}
	o.set |= s
}

// WithPriority sets the task's dispatch priority. Higher values dispatch
// first from a backlogged executor lane; the default is 0, and equal
// priorities dispatch in submission order.
func WithPriority(p int) CallOption {
	return CallOption{callOpts{set: optPriority, priority: p}}
}

// WithExecutor pins this invocation to one executor label, overriding the
// app's registration-time WithExecutors hints.
func WithExecutor(label string) CallOption {
	return CallOption{callOpts{set: optExecutor, executor: label}}
}

// WithDeadline bounds every execution attempt by an absolute deadline,
// overriding Config.TaskTimeout. A deadline already passed when the task
// becomes ready fails it without dispatch.
func WithDeadline(t time.Time) CallOption {
	return CallOption{callOpts{set: optDeadline, deadline: t}}
}

// WithTimeout bounds each execution attempt by d (measured, like
// Config.TaskTimeout, from when the ready task is routed),
// overriding the DFK-wide default for this call only.
func WithTimeout(d time.Duration) CallOption {
	return CallOption{callOpts{set: optTimeout, timeout: d}}
}

// WithRetries overrides the DFK-wide retry budget for this call (0 = fail on
// first error).
func WithRetries(n int) CallOption {
	return CallOption{callOpts{set: optRetries, retries: n}}
}

// WithMemoKey memoizes this invocation under an explicit key instead of the
// hash of app body and arguments, and enables memoization for the call even
// if the app was registered without it. Distinct invocations submitted with
// the same key share one result.
func WithMemoKey(key string) CallOption {
	return CallOption{callOpts{set: optMemoKey, memoKey: key}}
}

// WithTenant attributes this submission to a fair-queuing tenant. Every
// queue the task waits in — the per-executor lanes and the HTEX
// interchange — serves tenants by deficit round robin in
// proportion to weight, so a backlogged tenant cannot head-of-line-block the
// others; and when the DFK configures admission quotas
// (Config.MaxTasksPerTenant / TenantQuotas), the tenant's live tasks are
// bounded, blocking or shedding the submitter per Config.OverloadPolicy.
//
// weight sets the tenant's share relative to other tenants (latest
// submission wins; <= 0 leaves the current weight, which defaults to 1).
// Submissions without WithTenant belong to the default tenant ("", weight
// 1) and behave exactly as before multi-tenancy existed.
func WithTenant(id string, weight int) CallOption {
	return CallOption{callOpts{set: optTenant, tenant: id, weight: weight}}
}
