package sched

import "repro/internal/executor"

// Frozen is a one-shot load snapshot of an executor, the tests' stand-in for
// a candidate that reports its own load (as the DFK's lanes do): the Load
// sampled once, with extra tasks routed to the executor but not yet
// submitted to it added to Outstanding. LoadOf reads the snapshot, not the
// live executor; the digest probe stays live, being a bound method.
type Frozen struct {
	executor.Executor
	load  Load
	extra int
}

// Freeze samples ex's load once, overlaying extra pre-routed tasks.
func Freeze(ex executor.Executor, extra int) *Frozen {
	return &Frozen{Executor: ex, load: LoadOf(ex), extra: extra}
}

// Outstanding reports the sampled load plus the overlay.
func (f *Frozen) Outstanding() int { return f.load.Outstanding + f.extra }

// Load reports the sampled Load with the overlay added to Outstanding.
func (f *Frozen) Load() Load {
	l := f.load
	l.Outstanding += f.extra
	return l
}
