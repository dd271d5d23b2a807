package vault

import "fmt"

// Sanitizer support: the system keeps redundant views of the same
// activity — aggregate link-byte counters next to per-transfer lane
// reservations, row-buffer outcomes next to per-request accounting, and
// an aggregate instruction counter next to a per-vault issue ledger.
// Audit cross-checks them; all methods are read-only so an audited run
// is byte-identical to an unaudited one.

// Audit implements mem.Backend: link-lane budgets, byte conservation
// against the per-kind request counters, the row-buffer outcome
// partition, and the per-vault issue-accounting identities.
func (s *System) Audit(now uint64) error {
	if err := s.reqLink.Audit(); err != nil {
		return fmt.Errorf("request link: %w", err)
	}
	if err := s.rspLink.Audit(); err != nil {
		return fmt.Errorf("response link: %w", err)
	}
	reads := s.ctr.reads.Value()
	writes := s.ctr.writes.Value()
	ucReads := s.ctr.ucReads.Value()
	ucWrites := s.ctr.ucWrites.Value()
	atomics := s.ctr.atomics.Value()
	bundles := s.ctr.bundles.Value()

	// Request direction carries line writebacks plus one packet per UC
	// write and per atomic; response direction carries line fills plus
	// one packet per UC read and per atomic acknowledgment.
	if got, want := s.ctr.reqBytes.Value(), writes*lineBytes+(ucWrites+atomics)*packetBytes; got != want {
		return fmt.Errorf("vault.link.req_bytes = %d but per-request transfers sum to %d (writes=%d uc=%d atomics=%d)",
			got, want, writes, ucWrites, atomics)
	}
	if got, want := s.ctr.rspBytes.Value(), reads*lineBytes+(ucReads+atomics)*packetBytes; got != want {
		return fmt.Errorf("vault.link.rsp_bytes = %d but per-request transfers sum to %d (reads=%d uc=%d atomics=%d)",
			got, want, reads, ucReads, atomics)
	}

	// Each bank access — atomics sense their operand exactly once —
	// resolves to exactly one row-buffer outcome.
	if err := s.banks.Audit(reads + writes + ucReads + ucWrites + atomics); err != nil {
		return err
	}

	// Generic bundles are a subset of atomics, and every issued
	// instruction holds its core for exactly the issue gap.
	if bundles > atomics {
		return fmt.Errorf("vault.bundles = %d exceeds atomics %d", bundles, atomics)
	}
	instrs := s.ctr.coreInstrs.Value()
	if got, want := s.ctr.coreBusy.Value(), instrs*s.cfg.IssueGap; got != want {
		return fmt.Errorf("vault.core.busy_cycles = %d but %d instructions at issue gap %d give %d",
			got, instrs, s.cfg.IssueGap, want)
	}

	// The per-vault issue ledger must sum to the aggregate instruction
	// counter — a dropped or double-counted vault shows up here.
	var ledger uint64
	for _, n := range s.vaultInstrs {
		ledger += n
	}
	if ledger != instrs {
		return fmt.Errorf("per-vault issue ledger sums to %d instructions but vault.core.instrs = %d", ledger, instrs)
	}
	return nil
}
