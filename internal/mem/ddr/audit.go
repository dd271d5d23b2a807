package ddr

import "fmt"

// Sanitizer support, mirroring the HMC model: the system keeps
// redundant views of the same traffic — aggregate bus-byte counters
// next to per-transfer reservations, row-buffer outcome counters next
// to the per-request accounting. Audit cross-checks them. All methods
// are read-only so an audited run is byte-identical to an unaudited
// one.

// Audit implements mem.Backend: per-channel bus budgets, byte
// conservation against the per-kind request counters, and the
// row-buffer outcome partition.
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

	// Every read path reserves exactly one burst on the read direction,
	// every write path one on the write direction.
	if got, want := s.ctr.busRdBytes.Value(), (reads+ucReads)*burstBytes; got != want {
		return fmt.Errorf("ddr.bus.rd_bytes = %d but per-request bursts sum to %d (reads=%d uc=%d)",
			got, want, reads, ucReads)
	}
	if got, want := s.ctr.busWrBytes.Value(), (writes+ucWrites)*burstBytes; got != want {
		return fmt.Errorf("ddr.bus.wr_bytes = %d but per-request bursts sum to %d (writes=%d uc=%d)",
			got, want, writes, ucWrites)
	}

	// Each bank access resolves to exactly one row-buffer outcome.
	return s.banks.Audit(reads + writes + ucReads + ucWrites)
}

// CorruptBusLaneForTest over-reserves one epoch on channel 0 so
// fault-injection tests can prove the lane audit catches budget
// violations. Test-only; never call from simulation code.
func (s *System) CorruptBusLaneForTest() { s.bus[0].CorruptForTest() }
