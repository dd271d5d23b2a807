// Package ddr models a conventional DDR4-style host memory system as a
// mem.Backend: independent channels, each with ranks of DRAM banks
// behind a shared 64-bit data bus. It is the "what if the same machine
// ran on commodity DIMMs" substrate — there is no logic layer and no
// near-memory functional units, so CanOffload is always false and
// GraphPIM configurations degrade gracefully to host atomics through
// the POU's capability negotiation.
//
// Like the HMC model, it is a latency oracle with resource bookkeeping:
// each request computes its completion time from the current occupancy
// of the target bank and the channel data bus, updating those
// occupancies as it goes. The structural contrast with the cube is the
// point of the model: a few dozen banks instead of hundreds of vaults'
// worth, and an order of magnitude less aggregate bandwidth.
package ddr

import (
	"fmt"

	"graphpim/internal/hmcatomic"
	"graphpim/internal/mem"
	"graphpim/internal/mem/dram"
	"graphpim/internal/memmap"
	"graphpim/internal/sim"
)

// Config describes the DDR memory system.
type Config struct {
	// Channels is the number of independent memory channels (power of
	// two). Each channel has its own command/data bus.
	Channels int
	// RanksPerChannel and BanksPerRank give the bank resources behind
	// each channel (powers of two).
	RanksPerChannel int
	BanksPerRank    int

	// DRAM timing in nanoseconds.
	TRCDNs, TCLNs, TRPNs, TRASNs float64

	// ChannelGBs is the peak data-bus bandwidth per channel in GB/s
	// (DDR4-2400 x64: 19.2).
	ChannelGBs float64
	// BusLatency is the fixed one-way on-chip traversal plus controller
	// queueing latency in core cycles.
	BusLatency uint64

	// OpenPage keeps DRAM rows open between accesses (the usual host
	// controller policy): a row-buffer hit pays only tCL, a conflict
	// pays tRP+tRCD+tCL.
	OpenPage bool
	// RowBytes is the DRAM row size per bank for the open-page policy.
	RowBytes uint64
}

// DefaultConfig returns a 4-channel DDR4-2400-like configuration: 2
// ranks of 16 banks per channel, 19.2GB/s per channel, open-page with
// 8KB rows. DRAM core timings match the HMC cube's (the DRAM arrays are
// the same technology; the substrates differ in parallelism, bandwidth,
// and near-memory compute).
func DefaultConfig() Config {
	return Config{
		Channels:        4,
		RanksPerChannel: 2,
		BanksPerRank:    16,
		TRCDNs:          13.75,
		TCLNs:           13.75,
		TRPNs:           13.75,
		TRASNs:          27.5,
		ChannelGBs:      19.2,
		BusLatency:      18,
		OpenPage:        true,
		RowBytes:        8192,
	}
}

// Kind implements mem.Config.
func (c Config) Kind() string { return "ddr" }

// Validate implements mem.Config.
func (c Config) Validate() error {
	pow2 := func(name string, n int) error {
		if n <= 0 || n&(n-1) != 0 {
			return fmt.Errorf("ddr: %s %d must be a power of two >= 1", name, n)
		}
		return nil
	}
	if err := pow2("channel count", c.Channels); err != nil {
		return err
	}
	if err := pow2("rank count", c.RanksPerChannel); err != nil {
		return err
	}
	if err := pow2("bank count", c.BanksPerRank); err != nil {
		return err
	}
	if c.TRCDNs <= 0 || c.TCLNs <= 0 || c.TRPNs <= 0 || c.TRASNs <= 0 {
		return fmt.Errorf("ddr: non-positive DRAM timing (tRCD=%g tCL=%g tRP=%g tRAS=%g)",
			c.TRCDNs, c.TCLNs, c.TRPNs, c.TRASNs)
	}
	if c.ChannelGBs <= 0 {
		return fmt.Errorf("ddr: non-positive channel bandwidth %g GB/s", c.ChannelGBs)
	}
	if err := dram.CheckLaneRate(dram.BytesPerCycle(c.ChannelGBs), burstBytes); err != nil {
		return fmt.Errorf("ddr: channel bus %w", err)
	}
	return nil
}

// New implements mem.Config.
func (c Config) New(stats *sim.Stats) mem.Backend {
	if err := c.Validate(); err != nil {
		panic(err.Error())
	}
	if c.RowBytes == 0 {
		c.RowBytes = 8192
	}
	banks := c.RanksPerChannel * c.BanksPerRank
	s := &System{
		cfg:   c,
		ctr:   resolveCounters(stats),
		route: dram.NewRoute(c.Channels, banks, c.RowBytes),
		banks: dram.NewBanks(stats, "ddr", c.Channels, banks,
			dram.Timing{TRCDNs: c.TRCDNs, TCLNs: c.TCLNs, TRPNs: c.TRPNs, TRASNs: c.TRASNs}, c.OpenPage),
	}
	bytesPerCycle := dram.BytesPerCycle(c.ChannelGBs)
	for ch := 0; ch < c.Channels; ch++ {
		s.bus = append(s.bus, dram.NewLane(bytesPerCycle))
	}
	return s
}

// counters holds pre-resolved stat handles for the per-request paths.
type counters struct {
	reads, writes     sim.Counter
	ucReads, ucWrites sim.Counter

	busRdBytes sim.Counter
	busWrBytes sim.Counter
}

func resolveCounters(stats *sim.Stats) counters {
	return counters{
		reads:      stats.Counter("ddr.reads"),
		writes:     stats.Counter("ddr.writes"),
		ucReads:    stats.Counter("ddr.uc.reads"),
		ucWrites:   stats.Counter("ddr.uc.writes"),
		busRdBytes: stats.Counter("ddr.bus.rd_bytes"),
		busWrBytes: stats.Counter("ddr.bus.wr_bytes"),
	}
}

// burstBytes is the minimum transfer unit: a BL8 burst on a 64-bit bus.
// Sub-line UC accesses still occupy a full burst.
const burstBytes = 64

// System is the assembled DDR memory system.
type System struct {
	cfg Config
	ctr counters

	route dram.Route
	banks *dram.Banks
	bus   []*dram.Lane // per channel data bus
}

// read is the shared critical-path read timing: command to the bank,
// burst back over the channel bus.
func (s *System) read(addr memmap.Addr, now uint64) (done uint64) {
	ch, bank, row := s.route.Map(addr)
	arrive := now + s.cfg.BusLatency
	ready := s.banks.Access(ch, bank, row, arrive, 0)
	s.ctr.busRdBytes.Add(burstBytes)
	return s.bus[ch].Reserve(ready, burstBytes) + s.cfg.BusLatency
}

// write is the shared posted-write timing: the burst crosses the bus
// with the command, then occupies the bank.
func (s *System) write(addr memmap.Addr, now uint64) (done uint64) {
	ch, bank, row := s.route.Map(addr)
	s.ctr.busWrBytes.Add(burstBytes)
	arrive := s.bus[ch].Reserve(now, burstBytes) + s.cfg.BusLatency
	return s.banks.Access(ch, bank, row, arrive, 0)
}

// ReadLine implements mem.Backend: a 64-byte line fill on the critical
// path. Returns latency relative to now.
func (s *System) ReadLine(lineAddr memmap.Addr, now uint64) uint64 {
	s.ctr.reads.Inc()
	return s.read(lineAddr, now) - now
}

// WriteLine implements mem.Backend: a posted line writeback. Latency is
// off the critical path; bus and bank occupancy are modeled.
func (s *System) WriteLine(lineAddr memmap.Addr, now uint64) {
	s.ctr.writes.Inc()
	s.write(lineAddr, now)
}

// UCRead implements mem.Backend: a sub-line uncacheable read still
// transfers a full minimum burst. Returns latency.
func (s *System) UCRead(addr memmap.Addr, now uint64) uint64 {
	s.ctr.ucReads.Inc()
	return s.read(addr, now) - now
}

// UCWrite implements mem.Backend. Returns the cycle at which the write
// is acknowledged (data written into the bank).
func (s *System) UCWrite(addr memmap.Addr, now uint64) uint64 {
	s.ctr.ucWrites.Inc()
	return s.write(addr, now)
}

// CanOffload implements mem.Backend: commodity DIMMs have no
// near-memory compute, so nothing offloads.
func (s *System) CanOffload(op hmcatomic.Op) bool { return false }

// Atomic implements mem.Backend. Unreachable when the POU negotiates
// capability correctly; kept as a loud modeling-error guard.
func (s *System) Atomic(op hmcatomic.Op, addr memmap.Addr, imm hmcatomic.Value, now uint64) mem.AtomicTiming {
	panic(fmt.Sprintf("ddr: atomic %v offloaded to a backend with no PIM units", op))
}
