package dfk

import "time"

// CallOption customizes one submission (App.Submit/SubmitKw). Registration
// options (AppOption) set per-app defaults; CallOptions override them per
// invocation and ride on the task record through the dispatch pipeline.
type CallOption func(*callOpts)

type callOpts struct {
	priority int
	executor string
	deadline time.Time
	timeout  time.Duration
	retries  *int
	memoKey  string
	tenant   string
	weight   int
	// noAdmission marks DFK-internal submissions (hidden stage-in tasks)
	// that must bypass tenant admission: the user task that spawned them
	// already holds a quota slot and cannot release it until they finish,
	// so admitting them against the same tenant could self-deadlock under
	// the block policy (or spuriously shed them under shed).
	noAdmission bool
}

// WithPriority sets the task's dispatch priority. Higher values dispatch
// first from a backlogged executor lane; the default is 0, and equal
// priorities dispatch in submission order.
func WithPriority(p int) CallOption {
	return func(o *callOpts) { o.priority = p }
}

// WithExecutor pins this invocation to one executor label, overriding the
// app's registration-time WithExecutors hints.
func WithExecutor(label string) CallOption {
	return func(o *callOpts) { o.executor = label }
}

// WithDeadline bounds every execution attempt by an absolute deadline,
// overriding Config.TaskTimeout. A deadline already passed when the task
// becomes ready fails it without dispatch.
func WithDeadline(t time.Time) CallOption {
	return func(o *callOpts) { o.deadline = t }
}

// WithTimeout bounds each execution attempt by d (measured, like
// Config.TaskTimeout, from when the ready task is routed),
// overriding the DFK-wide default for this call only.
func WithTimeout(d time.Duration) CallOption {
	return func(o *callOpts) { o.timeout = d }
}

// WithRetries overrides the DFK-wide retry budget for this call (0 = fail on
// first error).
func WithRetries(n int) CallOption {
	return func(o *callOpts) { o.retries = &n }
}

// WithMemoKey memoizes this invocation under an explicit key instead of the
// hash of app body and arguments, and enables memoization for the call even
// if the app was registered without it. Distinct invocations submitted with
// the same key share one result.
func WithMemoKey(key string) CallOption {
	return func(o *callOpts) { o.memoKey = key }
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
	return func(o *callOpts) { o.tenant = id; o.weight = weight }
}
