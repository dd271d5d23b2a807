// Package check is the simulation sanitizer: a registry of invariant
// auditors over the redundant state every subsystem keeps (directory
// bits vs. line states, flit counters vs. per-request reservations,
// tracked queue minima vs. their backing buffers, wake-table membership
// vs. core liveness). The simulator is correct only if those redundant
// views always agree; goldens alone cannot see them drift.
//
// Auditors are registered once at machine construction and run at
// periodic checkpoints and at end of run. With Level Off nothing is
// registered and the hot path pays a single nil check. Auditors must be
// read-only — in particular they observe counters through
// sim.Stats.Get, which never creates a slot — so an audited run
// produces byte-identical output to an unaudited one.
package check

import (
	"fmt"
)

// Level selects how much auditing a run performs.
type Level uint8

const (
	// Off disables the sanitizer entirely (default; zero hot-path cost).
	Off Level = iota
	// Periodic runs every auditor at a fixed cycle interval and at end
	// of run.
	Periodic
)

func (l Level) String() string {
	switch l {
	case Off:
		return "off"
	case Periodic:
		return "periodic"
	}
	return fmt.Sprintf("Level(%d)", uint8(l))
}

// DefaultInterval is the periodic audit spacing in cycles when the
// machine config leaves it zero. Audits walk whole cache arrays and
// link-lane windows, so the interval trades detection latency against
// audited-run wall time; 4096 cycles keeps audited tests within a small
// multiple of unaudited ones while still localizing a corruption to a
// few thousand cycles.
const DefaultInterval = 4096

// NoCore is the Core value of a Failure raised by an auditor that is
// not scoped to a single core.
const NoCore = -1

// Failure reports one violated invariant with enough context to start
// debugging: which subsystem's auditor fired, at which simulated cycle,
// and — for per-core auditors — which core.
type Failure struct {
	// Subsystem is the registered auditor name: "cache", "hmc", "cpu",
	// "machine", or "stats".
	Subsystem string
	// Core is the core index for per-core auditors, NoCore otherwise.
	Core int
	// Cycle is the simulated time of the checkpoint that caught the
	// violation (the corruption happened at or before it).
	Cycle uint64
	// Err describes the violated invariant.
	Err error
}

func (f *Failure) Error() string {
	if f.Core == NoCore {
		return fmt.Sprintf("check: %s audit failed at cycle %d: %v", f.Subsystem, f.Cycle, f.Err)
	}
	return fmt.Sprintf("check: %s audit failed at cycle %d (core %d): %v", f.Subsystem, f.Cycle, f.Core, f.Err)
}

func (f *Failure) Unwrap() error { return f.Err }

type auditor struct {
	subsystem string
	core      int
	fn        func(now uint64) error
}

// Registry holds the auditors for one machine instance and schedules
// their periodic execution.
type Registry struct {
	interval uint64
	nextAt   uint64
	auditors []auditor
}

// NewRegistry returns a registry for the given level, or nil for Off —
// callers gate checkpoints on a nil test so disabled runs pay nothing.
// interval 0 means DefaultInterval.
func NewRegistry(level Level, interval uint64) *Registry {
	if level == Off {
		return nil
	}
	if interval == 0 {
		interval = DefaultInterval
	}
	return &Registry{interval: interval, nextAt: interval}
}

// Register adds an auditor. fn must be read-only and return a
// descriptive error on the first violated invariant. core is the core
// index for per-core auditors, NoCore otherwise.
func (r *Registry) Register(subsystem string, core int, fn func(now uint64) error) {
	r.auditors = append(r.auditors, auditor{subsystem: subsystem, core: core, fn: fn})
}

// Due reports whether a periodic checkpoint is owed at time now. It is
// the only call on the simulation hot path, a single comparison.
func (r *Registry) Due(now uint64) bool { return now >= r.nextAt }

// Checkpoint runs every auditor if a periodic checkpoint is due,
// advances the schedule past now, and returns the first failure.
func (r *Registry) Checkpoint(now uint64) *Failure {
	if !r.Due(now) {
		return nil
	}
	for r.nextAt <= now {
		r.nextAt += r.interval
	}
	return r.run(now)
}

// Final runs every auditor unconditionally; call once after the last
// event of the run.
func (r *Registry) Final(now uint64) *Failure { return r.run(now) }

func (r *Registry) run(now uint64) *Failure {
	for _, a := range r.auditors {
		if err := a.fn(now); err != nil {
			return &Failure{Subsystem: a.subsystem, Core: a.core, Cycle: now, Err: err}
		}
	}
	return nil
}
