package lpddr

import "fmt"

// Sanitizer support, mirroring the DDR and HMC models: the system keeps
// redundant views of the same traffic — aggregate bus-byte counters next
// to per-transfer reservations, row-buffer outcomes next to per-request
// accounting, MAC busy time next to the per-op occupancy model. Audit
// cross-checks them; all methods are read-only so an audited run is
// byte-identical to an unaudited one.

// Audit implements mem.Backend: per-channel bus budgets, byte
// conservation against the per-kind request counters, the row-buffer
// outcome partition, and the MAC-unit occupancy identity.
func (s *System) Audit(now uint64) error {
	for ch, l := range s.bus {
		if err := l.Audit(); err != nil {
			return fmt.Errorf("channel %d: %w", ch, err)
		}
	}
	reads := s.ctr.reads.Value()
	writes := s.ctr.writes.Value()
	ucReads := s.ctr.ucReads.Value()
	ucWrites := s.ctr.ucWrites.Value()
	atomics := s.ctr.atomics.Value()
	fpOps := s.ctr.fpOps.Value()

	// Line fills move lineBytes on the read direction; UC reads and
	// atomic responses one burst each. Symmetrically for writes and
	// atomic command packets.
	if got, want := s.ctr.busRdBytes.Value(), reads*lineBytes+(ucReads+atomics)*burstBytes; got != want {
		return fmt.Errorf("lpddr.bus.rd_bytes = %d but per-request transfers sum to %d (reads=%d uc=%d atomics=%d)",
			got, want, reads, ucReads, atomics)
	}
	if got, want := s.ctr.busWrBytes.Value(), writes*lineBytes+(ucWrites+atomics)*burstBytes; got != want {
		return fmt.Errorf("lpddr.bus.wr_bytes = %d but per-request transfers sum to %d (writes=%d uc=%d atomics=%d)",
			got, want, writes, ucWrites, atomics)
	}

	// Each bank access — atomics included, their operand is sensed once —
	// resolves to exactly one row-buffer outcome.
	if err := s.banks.Audit(reads + writes + ucReads + ucWrites + atomics); err != nil {
		return err
	}

	// MAC occupancy identity: every integer op holds its unit for the
	// base occupancy, every FP op for fpMACMult times as long.
	if fpOps > atomics {
		return fmt.Errorf("lpddr.mac.fp_ops = %d exceeds atomics %d", fpOps, atomics)
	}
	baseLat := s.cfg.MACOpPIMCycles * s.cfg.PIMClockDiv
	if got, want := s.ctr.macBusy.Value(), (atomics-fpOps)*baseLat+fpOps*baseLat*fpMACMult; got != want {
		return fmt.Errorf("lpddr.mac.busy_cycles = %d but per-op occupancy sums to %d (atomics=%d fp=%d)",
			got, want, atomics, fpOps)
	}

	// Every MAC next-free time lies on a domain clock edge plus the op
	// occupancy — i.e. is a multiple of the clock divisor.
	for ch := range s.macFree {
		for g, free := range s.macFree[ch] {
			if free%s.cfg.PIMClockDiv != 0 {
				return fmt.Errorf("channel %d group %d MAC free time %d is off the PIM clock grid (div %d)",
					ch, g, free, s.cfg.PIMClockDiv)
			}
		}
	}
	return nil
}
