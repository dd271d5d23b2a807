package channel

import (
	"fmt"

	"graphpim/internal/mem"
	"graphpim/internal/mem/dram"
)

// Sanitizer support, mirroring the HMC model: the system keeps
// redundant views of the same activity — aggregate byte counters next to
// per-transfer lane reservations, row-buffer outcomes next to the
// per-request counts, per-class op counts next to the unit's busy time,
// and a per-unit work ledger next to the aggregate work counter. Audit
// cross-checks them. It is read-only, so an audited run is
// byte-identical to an unaudited one.

// Audit implements mem.Backend: lane budgets, byte conservation against
// the per-kind request counters, the row-buffer outcome partition, the
// unit occupancy identities, the per-unit ledger and the unit clock
// grid.
func (s *System) Audit(now uint64) error {
	kind := s.cfg.kind
	for i, l := range s.lanes {
		if err := l.Audit(); err != nil {
			return fmt.Errorf("%s lane %d: %w", kind, i, err)
		}
	}
	reads := s.ctr.reads.Value()
	writes := s.ctr.writes.Value()
	ucReads := s.ctr.ucReads.Value()
	ucWrites := s.ctr.ucWrites.Value()
	atomics := s.ctr.atomics.Value()

	// Line fills move a line on the response direction, UC reads and
	// atomic responses a packet each; symmetrically for writebacks, UC
	// writes and atomic commands on the request direction.
	packet := uint64(s.cfg.PacketBytes)
	if got, want := s.ctr.rdBytes.Value(), reads*dram.LineBytes+(ucReads+atomics)*packet; got != want {
		return fmt.Errorf("%s = %d but per-request transfers sum to %d (reads=%d uc=%d atomics=%d)",
			mem.Alias(mem.StatRspBytes, kind), got, want, reads, ucReads, atomics)
	}
	if got, want := s.ctr.wrBytes.Value(), writes*dram.LineBytes+(ucWrites+atomics)*packet; got != want {
		return fmt.Errorf("%s = %d but per-request transfers sum to %d (writes=%d uc=%d atomics=%d)",
			mem.Alias(mem.StatReqBytes, kind), got, want, writes, ucWrites, atomics)
	}

	// Each bank access — atomics sense their operand exactly once —
	// resolves to exactly one row-buffer outcome.
	if err := s.banks.Audit(reads + writes + ucReads + ucWrites + atomics); err != nil {
		return err
	}

	// Every atomic counts in exactly one class (so FP ops and generic
	// bundles never exceed atomics), holds its unit for its class cost
	// in unit cycles, and each unit cycle is CycleMult core cycles.
	var ops, work uint64
	for c := range s.ctr.ops {
		n := s.ctr.ops[c].Value()
		ops += n
		work += n * s.cfg.Cost[c]
	}
	if ops != atomics {
		return fmt.Errorf("%s: per-class op counts sum to %d but %d atomics executed", kind, ops, atomics)
	}
	if got := s.ctr.work.Value(); got != work {
		return fmt.Errorf("%s: unit work counter = %d but per-class costs sum to %d", kind, got, work)
	}
	if got, want := s.ctr.busy.Value(), work*s.cfg.CycleMult; got != want {
		return fmt.Errorf("%s: unit busy cycles = %d but %d unit cycles x %d give %d",
			kind, got, work, s.cfg.CycleMult, want)
	}

	// The per-unit ledger must sum to the aggregate work counter — a
	// dropped or double-counted unit shows up here — and every unit's
	// next-free time lies on its clock grid when grants align.
	var ledger uint64
	for u, n := range s.unitWork {
		ledger += n
		if free := s.unitFree[u]; free%s.grid != 0 {
			return fmt.Errorf("%s: unit %d free time %d is off the unit clock grid (%d cycles)", kind, u, free, s.grid)
		}
	}
	if ledger != work {
		return fmt.Errorf("%s: per-unit ledger sums to %d unit cycles but the work counter = %d", kind, ledger, work)
	}
	return nil
}

// CorruptLaneForTest over-reserves one epoch on the first lane (channel
// 0's bus, or the request link) so fault-injection tests can prove the
// lane audit catches budget violations. Test-only; never call from
// simulation code.
func (s *System) CorruptLaneForTest() { s.lanes[0].CorruptForTest() }
