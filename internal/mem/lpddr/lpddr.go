// Package lpddr models a mobile-class LPDDR5X memory system with
// near-bank PIM units, in the spirit of the LPDDR-PIM designs built for
// on-device inference: each channel is a narrow x16 data bus in front of
// bank groups, and each bank group carries one MAC/atomic unit able to
// execute the HMC-style atomic command set next to its banks.
//
// Two structural contrasts with the HMC cube drive the numbers. First,
// the interconnect: eight mobile channels carry an order of magnitude
// less aggregate bandwidth than the cube's serial links, and the DRAM
// timings are mobile-class (slower tRCD/tCL, 2KB rows). Second, the
// compute: the PIM units live in their own slower clock domain — a
// DVFS-ish ratio of core cycles per PIM clock — and there is one unit
// per bank group rather than a set of functional units per vault, so
// atomic throughput saturates earlier. A GraphPIM configuration on this
// substrate still wins over its own baseline (the atomics do leave the
// cache hierarchy), but by less than on the cube.
package lpddr

import (
	"fmt"

	"graphpim/internal/hmcatomic"
	"graphpim/internal/mem"
	"graphpim/internal/mem/dram"
	"graphpim/internal/memmap"
	"graphpim/internal/sim"
)

// Config describes the LPDDR5X-PIM memory system.
type Config struct {
	// Channels is the number of independent x16 channels (power of two).
	Channels int
	// BankGroupsPerChannel and BanksPerGroup give the bank resources
	// behind each channel (powers of two). Each bank group carries one
	// PIM MAC/atomic unit.
	BankGroupsPerChannel int
	BanksPerGroup        int

	// DRAM timing in nanoseconds (mobile-class).
	TRCDNs, TCLNs, TRPNs, TRASNs float64

	// ChannelGBs is the peak data-bus bandwidth per channel in GB/s
	// (LPDDR5X-8533 x16: 17.1; half-rate mobile points are common).
	ChannelGBs float64
	// BusLatency is the fixed one-way traversal plus controller queueing
	// latency in core cycles.
	BusLatency uint64

	// PIMClockDiv is the DVFS-ish clock-domain ratio: core cycles per
	// PIM-unit clock. A PIM op starts on a domain clock edge (arrival
	// rounds up to a multiple of PIMClockDiv) and occupies its unit for
	// MACOpPIMCycles domain cycles.
	PIMClockDiv uint64
	// MACOpPIMCycles is the MAC/atomic unit occupancy per integer op in
	// PIM-domain cycles; FP ops take fpMACMult times as long.
	MACOpPIMCycles uint64
	// HasFP enables the FP capability of the MAC units. The LPDDR-PIM
	// designs this model follows are built around (FP-capable) MACs for
	// inference, so the default keeps it on; turning it off exercises
	// the POU's per-command fallback negotiation.
	HasFP bool

	// OpenPage keeps DRAM rows open between accesses; RowBytes is the
	// (mobile-class, small) row size per bank.
	OpenPage bool
	RowBytes uint64

	// Functional attaches a value store so offloaded atomics execute
	// functionally (tests cross-check against the host semantics).
	Functional bool
}

// DefaultConfig returns an 8-channel LPDDR5X-PIM point: 4 bank groups of
// 4 banks per channel, 8.5GB/s per x16 channel, mobile DRAM timings with
// 2KB rows, and PIM units at a quarter of the core clock.
func DefaultConfig() Config {
	return Config{
		Channels:             8,
		BankGroupsPerChannel: 4,
		BanksPerGroup:        4,
		TRCDNs:               18,
		TCLNs:                17,
		TRPNs:                18,
		TRASNs:               42,
		ChannelGBs:           8.5,
		BusLatency:           22,
		PIMClockDiv:          4,
		MACOpPIMCycles:       2,
		HasFP:                true,
		OpenPage:             true,
		RowBytes:             2048,
	}
}

// Kind implements mem.Config.
func (c Config) Kind() string { return "lpddr" }

// Validate implements mem.Config.
func (c Config) Validate() error {
	pow2 := func(name string, n int) error {
		if n <= 0 || n&(n-1) != 0 {
			return fmt.Errorf("lpddr: %s %d must be a power of two >= 1", name, n)
		}
		return nil
	}
	if err := pow2("channel count", c.Channels); err != nil {
		return err
	}
	if err := pow2("bank-group count", c.BankGroupsPerChannel); err != nil {
		return err
	}
	if err := pow2("bank count", c.BanksPerGroup); err != nil {
		return err
	}
	if c.TRCDNs <= 0 || c.TCLNs <= 0 || c.TRPNs <= 0 || c.TRASNs <= 0 {
		return fmt.Errorf("lpddr: non-positive DRAM timing (tRCD=%g tCL=%g tRP=%g tRAS=%g)",
			c.TRCDNs, c.TCLNs, c.TRPNs, c.TRASNs)
	}
	if c.ChannelGBs <= 0 {
		return fmt.Errorf("lpddr: non-positive channel bandwidth %g GB/s", c.ChannelGBs)
	}
	if err := dram.CheckLaneRate(dram.BytesPerCycle(c.ChannelGBs), lineBytes); err != nil {
		return fmt.Errorf("lpddr: channel bus %w", err)
	}
	if c.PIMClockDiv < 1 {
		return fmt.Errorf("lpddr: PIM clock divisor %d must be at least 1", c.PIMClockDiv)
	}
	if c.MACOpPIMCycles < 1 {
		return fmt.Errorf("lpddr: MAC op occupancy %d must be at least 1 PIM cycle", c.MACOpPIMCycles)
	}
	if c.RowBytes != 0 {
		if c.RowBytes&(c.RowBytes-1) != 0 || c.RowBytes < lineBytes {
			return fmt.Errorf("lpddr: row size %d must be a power of two >= %d", c.RowBytes, lineBytes)
		}
	}
	return nil
}

// New implements mem.Config.
func (c Config) New(stats *sim.Stats) mem.Backend {
	if err := c.Validate(); err != nil {
		panic(err.Error())
	}
	if c.RowBytes == 0 {
		c.RowBytes = 2048
	}
	banks := c.BankGroupsPerChannel * c.BanksPerGroup
	s := &System{
		cfg:   c,
		ctr:   resolveCounters(stats),
		route: dram.NewRoute(c.Channels, banks, c.RowBytes),
		banks: dram.NewBanks(stats, "lpddr", c.Channels, banks,
			dram.Timing{TRCDNs: c.TRCDNs, TCLNs: c.TCLNs, TRPNs: c.TRPNs, TRASNs: c.TRASNs}, c.OpenPage),
	}
	bytesPerCycle := dram.BytesPerCycle(c.ChannelGBs)
	for ch := 0; ch < c.Channels; ch++ {
		s.bus = append(s.bus, dram.NewLane(bytesPerCycle))
		s.macFree = append(s.macFree, make([]uint64, c.BankGroupsPerChannel))
	}
	if c.Functional {
		s.store = make(map[memmap.Addr]hmcatomic.Value)
	}
	return s
}

// counters holds pre-resolved stat handles for the per-request paths.
type counters struct {
	reads, writes     sim.Counter
	ucReads, ucWrites sim.Counter
	atomics           sim.Counter
	fpOps             sim.Counter

	busRdBytes sim.Counter
	busWrBytes sim.Counter

	macBusy  sim.Counter
	macQueue sim.Counter
}

func resolveCounters(stats *sim.Stats) counters {
	return counters{
		reads:      stats.Counter("lpddr.reads"),
		writes:     stats.Counter("lpddr.writes"),
		ucReads:    stats.Counter("lpddr.uc.reads"),
		ucWrites:   stats.Counter("lpddr.uc.writes"),
		atomics:    stats.Counter("lpddr.atomics"),
		fpOps:      stats.Counter("lpddr.mac.fp_ops"),
		busRdBytes: stats.Counter("lpddr.bus.rd_bytes"),
		busWrBytes: stats.Counter("lpddr.bus.wr_bytes"),
		macBusy:    stats.Counter("lpddr.mac.busy_cycles"),
		macQueue:   stats.Counter("lpddr.mac.queue_cycles"),
	}
}

const (
	// burstBytes is the minimum transfer unit: a BL16 burst on the x16
	// bus. Sub-line UC accesses and atomic command/response packets each
	// occupy one burst.
	burstBytes = 32
	// lineBytes is a cache-line transfer: two back-to-back bursts.
	lineBytes = 64
	// fpMACMult is the FP occupancy multiplier of the MAC unit.
	fpMACMult = 4
)

// System is the assembled LPDDR5X-PIM memory system.
type System struct {
	cfg Config
	ctr counters

	route dram.Route
	banks *dram.Banks  // [channel][group*banksPerGroup+bank]
	bus   []*dram.Lane // per channel data bus
	// macFree is each bank group's PIM unit next-free cycle (core
	// cycles, always a multiple of PIMClockDiv by construction).
	macFree [][]uint64

	// store is the functional value store (nil unless cfg.Functional).
	store map[memmap.Addr]hmcatomic.Value
}

// read is the shared critical-path read timing: command to the bank,
// bytes back over the channel bus.
func (s *System) read(addr memmap.Addr, now uint64, bytes int) (done uint64) {
	ch, bank, row := s.route.Map(addr)
	arrive := now + s.cfg.BusLatency
	ready := s.banks.Access(ch, bank, row, arrive, 0)
	s.ctr.busRdBytes.Add(uint64(bytes))
	return s.bus[ch].Reserve(ready, bytes) + s.cfg.BusLatency
}

// write is the shared posted-write timing: the burst crosses the bus
// with the command, then occupies the bank.
func (s *System) write(addr memmap.Addr, now uint64, bytes int) (done uint64) {
	ch, bank, row := s.route.Map(addr)
	s.ctr.busWrBytes.Add(uint64(bytes))
	arrive := s.bus[ch].Reserve(now, bytes) + s.cfg.BusLatency
	return s.banks.Access(ch, bank, row, arrive, 0)
}

// ReadLine implements mem.Backend: a 64-byte line fill (two bursts) on
// the critical path. Returns latency relative to now.
func (s *System) ReadLine(lineAddr memmap.Addr, now uint64) uint64 {
	s.ctr.reads.Inc()
	return s.read(lineAddr, now, lineBytes) - now
}

// WriteLine implements mem.Backend: a posted line writeback.
func (s *System) WriteLine(lineAddr memmap.Addr, now uint64) {
	s.ctr.writes.Inc()
	s.write(lineAddr, now, lineBytes)
}

// UCRead implements mem.Backend: a sub-line uncacheable read transfers
// one minimum burst. Returns latency.
func (s *System) UCRead(addr memmap.Addr, now uint64) uint64 {
	s.ctr.ucReads.Inc()
	return s.read(addr, now, burstBytes) - now
}

// UCWrite implements mem.Backend. Returns the cycle at which the write
// is acknowledged.
func (s *System) UCWrite(addr memmap.Addr, now uint64) uint64 {
	s.ctr.ucWrites.Inc()
	return s.write(addr, now, burstBytes)
}

// CanOffload implements mem.Backend: the bank-group units execute the
// whole fixed-function command set; FP capability is a configuration
// choice (off exercises the POU's per-command fallback).
func (s *System) CanOffload(op hmcatomic.Op) bool {
	return !hmcatomic.IsFloat(op) || s.cfg.HasFP
}

// macLatency is the PIM unit occupancy for op in core cycles: the
// domain occupancy scaled by the clock-domain ratio.
func (s *System) macLatency(op hmcatomic.Op) uint64 {
	lat := s.cfg.MACOpPIMCycles
	if hmcatomic.IsFloat(op) {
		lat *= fpMACMult
	}
	return lat * s.cfg.PIMClockDiv
}

// alignUp rounds t up to the next PIM-domain clock edge.
func (s *System) alignUp(t uint64) uint64 {
	div := s.cfg.PIMClockDiv
	return (t + div - 1) / div * div
}

// Atomic implements mem.Backend: the command packet crosses the channel
// bus, the operand is sensed from the bank, the bank group's MAC unit
// executes the op in its own clock domain, and the acknowledgment (or
// old value) returns over the bus.
func (s *System) Atomic(op hmcatomic.Op, addr memmap.Addr, imm hmcatomic.Value, now uint64) mem.AtomicTiming {
	if !s.CanOffload(op) {
		panic(fmt.Sprintf("lpddr: atomic %v offloaded to a MAC unit without FP capability", op))
	}
	s.ctr.atomics.Inc()
	if hmcatomic.IsFloat(op) {
		s.ctr.fpOps.Inc()
	}
	ch, bank, row := s.route.Map(addr)
	group := bank / s.cfg.BanksPerGroup

	// Command + immediate cross the bus like a minimum burst.
	s.ctr.busWrBytes.Add(burstBytes)
	arrive := s.bus[ch].Reserve(now, burstBytes) + s.cfg.BusLatency
	ready := s.banks.Access(ch, bank, row, arrive, 0)

	// Claim the bank group's MAC unit on a PIM-domain clock edge.
	lat := s.macLatency(op)
	start := s.alignUp(max(ready, s.macFree[ch][group]))
	s.ctr.macQueue.Add(start - ready)
	s.macFree[ch][group] = start + lat
	s.ctr.macBusy.Add(lat)
	done := start + lat

	// Acknowledgment / old value returns over the bus.
	s.ctr.busRdBytes.Add(burstBytes)
	resp := s.bus[ch].Reserve(done, burstBytes) + s.cfg.BusLatency

	t := mem.AtomicTiming{Accepted: max(now+2, arrive-s.cfg.BusLatency), ResponseAt: resp}
	if s.store != nil {
		r := hmcatomic.Apply(op, s.store[addr], imm)
		if r.Wrote {
			s.store[addr] = r.New
		}
		t.Flag = r.Flag
	}
	return t
}

// Value returns the functional store's value at addr (functional
// configurations only; tests).
func (s *System) Value(addr memmap.Addr) hmcatomic.Value { return s.store[addr] }
