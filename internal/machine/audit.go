package machine

import (
	"fmt"

	"graphpim/internal/check"
	"graphpim/internal/mem"
	"graphpim/internal/sim"
)

// Sanitizer wiring. With cfg.Check != check.Off the machine builds a
// check.Registry at construction and runs every subsystem's auditor at
// periodic checkpoints and at end of run; a violation panics with a
// *check.Failure carrying the subsystem, cycle, and core. Auditors are
// read-only and observe counters through sim.Stats.Get (which never
// creates a slot), so an audited run's Result — counters included — is
// byte-identical to an unaudited one.

// registerAuditors installs the per-subsystem auditors. The machine
// loop's own invariants (wake-table coverage, barrier partition) depend
// on Run-local state and are audited inline in Run instead.
func (m *Machine) registerAuditors() {
	m.checks.Register("cache", check.NoCore, func(uint64) error { return m.cache.CheckInvariants() })
	m.checks.Register(m.memKind, check.NoCore, m.mem.Audit)
	for i, c := range m.cores {
		m.checks.Register("cpu", i, c.Audit)
		// Streamed replay adds a memory-bound invariant per core: the
		// cursor's decode ring must stay within the advertised chunk
		// size, or "streaming" silently degrades to materializing.
		if b, ok := c.Cursor().(interface{ AuditBounds() error }); ok {
			m.checks.Register("stream", i, func(uint64) error { return b.AuditBounds() })
		}
	}
	m.checks.Register("stats", check.NoCore, func(uint64) error { return m.auditStats() })
}

// auditStats cross-checks counter identities that hold by construction
// across subsystem boundaries: every L1 miss probes the L2, every L3
// miss (plus every prefetch) reads the memory backend, every UC access
// the machine routed shows up in the backend's UC counters, and so on.
// The backend side of each pair comes from mem.Names for the backend's
// kind, so the identities hold for any substrate. A drifting counter pair
// means double- or under-counting somewhere between two subsystems —
// exactly the class of bug goldens average away.
func (m *Machine) auditStats() error {
	get := m.stats.Get
	eq := func(a, b string) error {
		if va, vb := get(a), get(b); va != vb {
			return fmt.Errorf("%s = %d but %s = %d", a, va, b, vb)
		}
		return nil
	}
	for _, lvl := range []string{"cache.l1", "cache.l2", "cache.l3"} {
		if acc, hm := get(lvl+".access"), get(lvl+".hit")+get(lvl+".miss"); acc != hm {
			return fmt.Errorf("%s.access = %d but hit+miss = %d", lvl, acc, hm)
		}
	}
	names := mem.Names(m.memKind)
	checks := [][2]string{
		{"cache.l1.miss", "cache.l2.access"},
		{"cache.l2.miss", "cache.l3.access"},
		{names.Reads, "cache.mem.reads"},
		{names.Writes, "cache.mem.writebacks"},
		{names.UCReads, "mem.uc_loads"},
		{names.UCWrites, "mem.uc_stores"},
	}
	if names.Atomics != "" {
		checks = append(checks, [2]string{names.Atomics, "mem.pim_atomics"})
	} else if n := get("mem.pim_atomics"); n != 0 {
		// A backend with no atomic counter has no PIM units; capability
		// negotiation must have kept every atomic on the host path.
		return fmt.Errorf("mem.pim_atomics = %d on a backend with no atomic offload", n)
	}
	for _, c := range checks {
		if c[0] == "" {
			// The backend does not model this quantity.
			continue
		}
		if err := eq(c[0], c[1]); err != nil {
			return err
		}
	}
	if mr, want := get("cache.mem.reads"), get("cache.l3.miss")+get("cache.prefetch.issued"); mr != want {
		return fmt.Errorf("cache.mem.reads = %d but l3.miss+prefetch.issued = %d", mr, want)
	}
	// GraphPIM's direct offload classifies candidates without a
	// hit/miss verdict, so the breakdown is a lower bound, not a
	// partition.
	if hm, cand := get("pou.candidates.hit")+get("pou.candidates.miss"), get("pou.candidates"); hm > cand {
		return fmt.Errorf("pou.candidates.hit+miss = %d exceeds pou.candidates = %d", hm, cand)
	}
	var retired uint64
	for _, c := range m.cores {
		retired += c.Retired()
	}
	if ctr := get("cpu.retired"); ctr != retired {
		return fmt.Errorf("cpu.retired = %d but cores retired %d", ctr, retired)
	}
	return nil
}

// auditLoop validates the Run loop's redundant scheduling state after an
// event-time drain: the done/parked counters must agree with the cores,
// and every core that is neither done nor parked must have a pending
// wakeup — a live core missing from the table would silently never run
// again until the table empties.
func (m *Machine) auditLoop(wake *sim.Wakeups, done, parked int) error {
	gotDone, gotParked := 0, 0
	for i, c := range m.cores {
		d, p := c.Done(), c.WaitingBarrier()
		if d {
			gotDone++
		}
		if p {
			gotParked++
		}
		if !d && !p && !wake.Scheduled(i) {
			return fmt.Errorf("core %d is live but has no pending wakeup", i)
		}
	}
	if gotDone != done || gotParked != parked {
		return fmt.Errorf("done/parked counters %d/%d disagree with core states %d/%d",
			done, parked, gotDone, gotParked)
	}
	return nil
}

// checkpoint runs every registered auditor and then the machine-loop
// audit; used by Run when a periodic checkpoint is due and at end of
// run. The subsystems go first because the loop's state is derived from
// theirs: a core whose queues are corrupt can return no wake time, and
// the failure belongs to the core, not to the wake table it starves.
func (m *Machine) checkpoint(now uint64, wake *sim.Wakeups, done, parked int, final bool) {
	var f *check.Failure
	if final {
		f = m.checks.Final(now)
	} else {
		f = m.checks.Checkpoint(now)
	}
	if f != nil {
		panic(f)
	}
	if err := m.auditLoop(wake, done, parked); err != nil {
		panic(&check.Failure{Subsystem: "machine", Core: check.NoCore, Cycle: now, Err: err})
	}
}
