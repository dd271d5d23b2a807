// Package dram is the DRAM core every memory substrate shares: the
// epoch-budget Lane that meters a link or data bus, the row-buffer
// Banks model, and the channel-interleaved Route from an address to its
// bank and row. The hmc and channel backends call these types directly
// and keep only what makes each of them different: geometry, transport,
// PIM units, counter names and conservation audits.
package dram

import (
	"fmt"
	"math"
	"math/bits"

	"graphpim/internal/memmap"
	"graphpim/internal/sim"
)

// EpochCycles is a lane epoch's length in core cycles.
const EpochCycles = 32

// EpochSlots is the size of a lane's epoch ring. A reservation further
// than EpochSlots epochs ahead of a live one recycles its slot.
const EpochSlots = 1 << 14

// Lane models one direction of a link or data bus as fixed-width time
// epochs with a transfer budget each. A transfer reserves budget
// starting at the epoch containing its ready time, spilling into later
// epochs when the lane is saturated. Unlike a single next-free pointer,
// this admits out-of-order ready times without head-of-line blocking (a
// transfer scheduled far in the future does not delay transfers that
// are ready now), while still enforcing the aggregate bandwidth.
//
// A lane is unit-agnostic: the HMC links book FLITs, the buses and the
// vault links book bytes.
type Lane struct {
	budget  float64 // units per epoch
	perUnit float64 // serialization cycles per unit
	slack   LaneSlack
	slots   [EpochSlots]epochSlot
}

type epochSlot struct {
	epoch uint64  // absolute epoch index occupying the slot
	load  float64 // units booked in that epoch
}

// NewLane returns a lane carrying unitsPerCycle units per core cycle.
func NewLane(unitsPerCycle float64) *Lane {
	l := &Lane{}
	l.budget, l.perUnit = laneRate(unitsPerCycle)
	return l
}

// laneRate is a lane's epoch budget and per-unit serialization time at
// unitsPerCycle, in the float arithmetic Reserve books with.
func laneRate(unitsPerCycle float64) (budget, perUnit float64) {
	return unitsPerCycle * EpochCycles, 1 / unitsPerCycle
}

// BytesPerCycle converts a GB/s rate to bytes per core cycle, the unit
// of the byte-metered lanes.
func BytesPerCycle(gbs float64) float64 { return gbs * 1e9 / (sim.CoreClockGHz * 1e9) }

// CheckLaneRate reports an error when a lane carrying unitsPerCycle
// could not fit a transfer of largest units into one epoch's budget:
// Reserve would then search for room forever. Every backend's Validate
// calls it with its lanes' rate and largest transfer.
func CheckLaneRate(unitsPerCycle float64, largest int) error {
	if budget := unitsPerCycle * EpochCycles; !(budget >= float64(largest)) {
		return fmt.Errorf("rate %g per cycle gives a %d-cycle epoch budget of %g, below the largest transfer of %d",
			unitsPerCycle, EpochCycles, budget, largest)
	}
	return nil
}

// Reserve books units no earlier than ready and returns the cycle at
// which the transfer has fully crossed the lane (excluding any fixed
// latency).
func (l *Lane) Reserve(ready uint64, units int) uint64 {
	need := float64(units)
	if units > l.slack.MaxUnits {
		l.slack.MaxUnits = units
	}
	for e := ready / EpochCycles; ; e++ {
		s := &l.slots[e%EpochSlots]
		if s.epoch != e {
			// Lazily reset a recycled slot.
			s.epoch, s.load = e, 0
		}
		if s.load+need <= l.budget {
			s.load += need
			if s.load > l.slack.Peak {
				l.slack.Peak = s.load
			}
			// Serialization rounds units*perUnit up to whole cycles, so
			// 15 FLITs at 15 FLITs/cycle cost exactly 1 cycle.
			return max(ready, e*EpochCycles) + uint64(math.Ceil(need*l.perUnit))
		}
		l.slack.Spilled = true
	}
}

// LaneSlack is a lane's certificate of how close its reservations came
// to its rate, recorded as Reserve books them.
type LaneSlack struct {
	// Spilled is set once a transfer found its ready epoch full and
	// booked a later one.
	Spilled bool
	// Peak is the highest load any epoch reached.
	Peak float64
	// MaxUnits is the largest transfer booked.
	MaxUnits int
}

// Slack returns the certificate of every reservation booked so far.
func (l *Lane) Slack() LaneSlack { return l.slack }

// Merge returns one certificate for two lanes of one rate: every rate
// it admits, both lanes admit.
func (s LaneSlack) Merge(o LaneSlack) LaneSlack {
	return LaneSlack{
		Spilled:  s.Spilled || o.Spilled,
		Peak:     max(s.Peak, o.Peak),
		MaxUnits: max(s.MaxUnits, o.MaxUnits),
	}
}

// Admits reports whether a lane carrying to units per cycle returns the
// same cycle as one carrying from did, for every reservation of a
// sequence the from lane booked with slack s. An equal rate is the same
// lane. Otherwise: without a spill every transfer was booked in its
// ready epoch and returned ready + ceil(units*perUnit). The epoch loads
// depend only on the sequence, so a budget that holds the peak books
// every transfer in its ready epoch too, and where ceil(units*perUnit)
// agrees for every size up to the largest booked, the returned cycle is
// the same.
func (s LaneSlack) Admits(from, to float64) bool {
	if from == to {
		return true
	}
	if s.Spilled {
		return false
	}
	_, was := laneRate(from)
	budget, perUnit := laneRate(to)
	if !(s.Peak <= budget) {
		return false
	}
	for u := 1; u <= s.MaxUnits; u++ {
		if math.Ceil(float64(u)*was) != math.Ceil(float64(u)*perUnit) {
			return false
		}
	}
	return true
}

// Audit verifies that no epoch slot was reserved past the lane's
// budget. Slots are lazily recycled, so stale slots still hold loads
// from old epochs — those were validated when written and stay within
// budget, which keeps the whole-ring sweep sound. Read-only.
func (l *Lane) Audit() error {
	// Reserve accumulates float64 unit counts; allow for rounding dust.
	const eps = 1e-6
	for i := range l.slots {
		if s := &l.slots[i]; s.load < -eps || s.load > l.budget+eps {
			return fmt.Errorf("lane epoch slot %d (epoch %d) holds %g units, budget %g",
				i, s.epoch, s.load, l.budget)
		}
	}
	return nil
}

// CorruptForTest over-reserves epoch 0 so fault-injection tests can
// prove the lane audit catches budget violations. Test-only; never call
// from simulation code.
func (l *Lane) CorruptForTest() {
	l.slots[0] = epochSlot{epoch: 0, load: 2 * l.budget}
}

// Timing is a DRAM core's timing in nanoseconds.
type Timing struct {
	TRCDNs, TCLNs, TRPNs, TRASNs float64
}

// Banks is a [unit][bank] row-buffer model: each bank has a next-free
// cycle and, under the open-page policy, an open row. A unit is
// whatever groups banks in a backend: an HMC vault, a DDR or LPDDR
// channel, a vault core's vault.
type Banks struct {
	tRCD, tCL, tRP, tRC uint64
	openPage            bool
	perUnit             int
	state               []bankState // [unit*perUnit+bank]

	ns                               string
	activates, rowHits, rowConflicts sim.Counter
}

type bankState struct {
	free uint64 // next free cycle
	open uint64 // open row id + 1 (0 = closed)
}

// NewBanks builds units x perUnit banks with timing t, converted to core
// cycles once. Outcomes count into the ns.dram.{activates,row_hits,
// row_conflicts} counters.
func NewBanks(stats *sim.Stats, ns string, units, perUnit int, t Timing, openPage bool) *Banks {
	b := &Banks{
		tRCD:         sim.NsToCycles(t.TRCDNs),
		tCL:          sim.NsToCycles(t.TCLNs),
		tRP:          sim.NsToCycles(t.TRPNs),
		openPage:     openPage,
		perUnit:      perUnit,
		state:        make([]bankState, units*perUnit),
		ns:           ns,
		activates:    stats.Counter(ns + ".dram.activates"),
		rowHits:      stats.Counter(ns + ".dram.row_hits"),
		rowConflicts: stats.Counter(ns + ".dram.row_conflicts"),
	}
	b.tRC = sim.NsToCycles(t.TRASNs) + b.tRP
	return b
}

// Access reserves bank (unit, bank) starting no earlier than arrive,
// holding it extra cycles past the access (an HMC atomic's RMW hold; 0
// for plain reads and writes). It returns the cycle at which data is
// available; row is the target row id + 1 and matters only when pages
// stay open.
//
// Closed page: every access activates and precharges, so the bank is
// busy for tRC. Open page: a row-buffer hit pays only tCL and keeps the
// bank busy briefly; a row conflict pays precharge + activate + column
// access.
func (b *Banks) Access(unit, bank int, row, arrive, extra uint64) (dataReady uint64) {
	s := &b.state[unit*b.perUnit+bank]
	start := max(arrive, s.free)
	if !b.openPage {
		b.activates.Inc()
		s.free = start + b.tRC + extra
		return start + b.tRCD + b.tCL
	}
	switch s.open {
	case row: // row-buffer hit
		b.rowHits.Inc()
		dataReady = start + b.tCL
	case 0: // bank idle, row closed
		b.activates.Inc()
		dataReady = start + b.tRCD + b.tCL
	default: // row conflict: precharge, then activate
		b.activates.Inc()
		b.rowConflicts.Inc()
		dataReady = start + b.tRP + b.tRCD + b.tCL
	}
	s.free = dataReady + extra
	s.open = row
	return dataReady
}

// Audit checks the row-buffer outcome partition against the backend's
// own request count: each of the accesses bank accesses resolved to
// exactly one outcome, a hit or an activate (conflicts activate too,
// after a precharge). Counters are shared by every Banks of a stats
// registry, so accesses is the registry-wide total. Read-only.
func (b *Banks) Audit(accesses uint64) error {
	activates, hits := b.activates.Value(), b.rowHits.Value()
	if activates+hits != accesses {
		return fmt.Errorf("%s.dram.activates+row_hits = %d+%d but %d accesses served",
			b.ns, activates, hits, accesses)
	}
	if conflicts := b.rowConflicts.Value(); conflicts > activates {
		return fmt.Errorf("%s.dram.row_conflicts = %d exceeds activates %d", b.ns, conflicts, activates)
	}
	return nil
}

// LineBytes is the interleaving granule of Route: one cache line.
const LineBytes = 64

// Route maps an address to its unit, bank and row. Consecutive 64-byte
// lines interleave across units first (spreading streaming traffic over
// every channel), then across the unit's banks; the bits above the
// interleave fields index the bank's own line sequence, whose rows hold
// RowBytes/64 lines each. Deriving the row from the bank-local index
// (not the raw physical address) is what gives streaming traffic its
// row locality: a sequential sweep keeps every bank on its open row.
type Route struct {
	unitBits, bankBits uint
	unitMask, bankMask uint64
	linesPerRow        uint64
}

// NewRoute builds the route for units x banksPerUnit banks (both powers
// of two) with rowBytes-byte rows.
func NewRoute(units, banksPerUnit int, rowBytes uint64) Route {
	return Route{
		unitBits:    uint(bits.TrailingZeros(uint(units))),
		bankBits:    uint(bits.TrailingZeros(uint(banksPerUnit))),
		unitMask:    uint64(units - 1),
		bankMask:    uint64(banksPerUnit - 1),
		linesPerRow: rowBytes / LineBytes,
	}
}

// Map returns addr's unit, bank and row id + 1 (the form Banks.Access
// takes).
func (r Route) Map(addr memmap.Addr) (unit, bank int, row uint64) {
	block := uint64(addr) / LineBytes
	unit = int(block & r.unitMask)
	bank = int((block >> r.unitBits) & r.bankMask)
	row = (block>>(r.unitBits+r.bankBits))/r.linesPerRow + 1
	return
}
