// Package channel is the one memory backend behind the ddr, lpddr and
// vault kinds: channels of DRAM banks (mem/dram) behind a transport,
// with optional near-memory PIM units. The kinds differ only in data,
// so each is one row of the table below and the request paths, the
// counter resolution and the audit are written once.
//
//   - ddr — a DDR4-style host memory with no PIM units, the
//     conventional-system baseline: CanOffload is always false and
//     GraphPIM configurations degrade to host atomics through the POU's
//     capability negotiation.
//   - lpddr — an LPDDR5X-PIM point: narrow per-channel buses and one
//     MAC/atomic unit per bank group in a slower PIM clock domain, so
//     atomic throughput saturates earlier than on the cube.
//   - vault — UPMEM-style vaults: one in-order scalar core per vault
//     runs every atomic as an instruction bundle (FP in software), so
//     even atomics with no HMC command offload (mem.BundleBackend), but
//     throughput is issue-rate limited.
//
// Like the HMC model, a System is a latency oracle with resource
// bookkeeping: each request computes its completion time from the
// occupancy of its bank, its transport lanes and its PIM unit, and
// updates them as it goes.
package channel

import (
	"fmt"
	"math/bits"
	"strconv"

	"graphpim/internal/hmcatomic"
	"graphpim/internal/mem"
	"graphpim/internal/mem/dram"
	"graphpim/internal/memmap"
	"graphpim/internal/sim"
)

// Class is an atomic's cost class on a PIM unit.
type Class int

const (
	Int    Class = iota // plain integer read-modify-write
	CAS                 // compare-and-swap and compare-for-equality
	FP                  // the floating-point extension commands
	Bundle              // a generic RMW with no fixed-function command
	NumClasses
)

var classNames = [NumClasses]string{"int", "CAS", "FP", "bundle"}

// opClass is each fixed-function command's cost class.
var opClass = func() (t [hmcatomic.NumOps]Class) {
	for i := range t {
		switch op := hmcatomic.Op(i); {
		case hmcatomic.IsFloat(op):
			t[i] = FP
		case op == hmcatomic.CasEQ8 || op == hmcatomic.CasZero16 ||
			op == hmcatomic.CasGT16 || op == hmcatomic.CasLT16 ||
			op == hmcatomic.Eq8 || op == hmcatomic.Eq16:
			t[i] = CAS
		}
	}
	return t
}()

// Config is one row of the channel backend. It is a comparable value:
// the harness keys simulations by it.
type Config struct {
	kind string

	// Channels is the number of independent channels (power of two): a
	// bus each on ddr and lpddr, a vault each on vault.
	Channels int
	// BanksPerChannel is the bank count behind each channel (power of
	// two).
	BanksPerChannel int
	// Timing is the DRAM core timing in nanoseconds.
	Timing dram.Timing
	// OpenPage keeps rows open between accesses: a row-buffer hit pays
	// only tCL, a conflict tRP+tRCD+tCL.
	OpenPage bool
	// RowBytes is the row size per bank (a power of two, at least a
	// line).
	RowBytes uint64

	// LaneGBs is each transport lane's bandwidth in GB/s.
	LaneGBs float64
	// LinkPair selects the transport. On a bus (false) each channel has
	// one lane that both directions book; on a link pair (true) every
	// channel shares one request lane and one response lane.
	LinkPair bool
	// Latency is the fixed one-way transport latency in core cycles
	// (on-chip traversal plus controller queueing, or link traversal).
	Latency uint64
	// PacketBytes is what an uncacheable access, and an atomic's command
	// and its response, each move (at most a line; lines move 64 bytes).
	PacketBytes int

	// UnitsPerChannel is the number of PIM units per channel: 0, or a
	// power of two no larger than BanksPerChannel. Each unit serves an
	// equal run of the channel's banks.
	UnitsPerChannel int
	// Cost is each class's unit occupancy in unit cycles (MAC cycles on
	// lpddr, instructions on vault). A cost of 0 means the class does
	// not offload.
	Cost [NumClasses]uint64
	// CycleMult is the core cycles per unit cycle: the PIM clock divisor
	// on lpddr, the core issue gap on vault.
	CycleMult uint64
	// AlignGrant starts every unit grant on a unit clock edge (a
	// multiple of CycleMult core cycles).
	AlignGrant bool
	// StageLatency is paid between the bank access and the unit, to
	// stage the operand (the WRAM scratchpad on vault).
	StageLatency uint64

	// Functional attaches a value store so offloaded atomics execute
	// functionally (tests cross-check against the host semantics).
	// Generic bundles have no fixed semantics and leave it untouched.
	Functional bool
}

// unitNames names a kind's PIM-unit counters. A kind keeps a count it
// has no name for in the system's private registry: every row runs the
// same paths and audit, and a run's stats see only the kind's names.
type unitNames struct {
	work, busy, queue string
	ops               [NumClasses]string
}

// cubeTiming is the DRAM core of the HMC cube; ddr and vault use the
// same arrays and differ in what surrounds them.
var cubeTiming = dram.Timing{TRCDNs: 13.75, TCLNs: 13.75, TRPNs: 13.75, TRASNs: 27.5}

// rows is the table of kinds, in backend-list order.
var rows = [...]struct {
	cfg  Config
	unit unitNames
}{
	// ddr, after DESIGN.md §15: DDR4-2400 with 4 channels of 2 ranks x
	// 16 banks, 8KB open-page rows, one 19.2 GB/s x64 bus per channel
	// moving 64-byte BL8 bursts (UC accesses included), and no PIM
	// units.
	{cfg: Config{
		kind: "ddr", Channels: 4, BanksPerChannel: 2 * 16, Timing: cubeTiming,
		OpenPage: true, RowBytes: 8192,
		LaneGBs: 19.2, Latency: 18, PacketBytes: 64,
	}},
	// lpddr, after LP5X-PIM Sim (PAPERS.md): 8 x16 channels of 4 bank
	// groups x 4 banks, mobile timings with 2KB rows, 8.5 GB/s per
	// channel moving 32-byte BL16 bursts, and one MAC unit per bank
	// group at a quarter of the core clock, granted on its clock edges:
	// 2 PIM cycles per integer or CAS op, 4x that for FP, no bundles.
	{cfg: Config{
		kind: "lpddr", Channels: 8, BanksPerChannel: 4 * 4,
		Timing:   dram.Timing{TRCDNs: 18, TCLNs: 17, TRPNs: 18, TRASNs: 42},
		OpenPage: true, RowBytes: 2048,
		LaneGBs: 8.5, Latency: 22, PacketBytes: 32,
		UnitsPerChannel: 4, Cost: [NumClasses]uint64{Int: 2, CAS: 2, FP: 8},
		CycleMult: 4, AlignGrant: true,
	}, unit: unitNames{
		busy: "lpddr.mac.busy_cycles", queue: "lpddr.mac.queue_cycles",
		ops: [NumClasses]string{FP: "lpddr.mac.fp_ops"},
	}},
	// vault, after ALPHA-PIM's UPMEM figures (PAPERS.md): 16 vaults of
	// 8 banks with the cube's DRAM core, a 40 GB/s-per-direction host
	// link pair moving 16-byte packets, and one in-order core per vault
	// issuing an instruction every 4 cycles after a 3-cycle WRAM stage.
	// Bundles are load/op/store plus loop overhead: 4 instructions for
	// an integer RMW, 6 for CAS, 24 for software FP and 10 for a generic
	// RMW.
	{cfg: Config{
		kind: "vault", Channels: 16, BanksPerChannel: 8, Timing: cubeTiming,
		OpenPage: true, RowBytes: 8192,
		LaneGBs: 40, LinkPair: true, Latency: 12, PacketBytes: 16,
		UnitsPerChannel: 1, Cost: [NumClasses]uint64{Int: 4, CAS: 6, FP: 24, Bundle: 10},
		CycleMult: 4, StageLatency: 3,
	}, unit: unitNames{
		work: "vault.core.instrs", busy: "vault.core.busy_cycles", queue: "vault.core.queue_cycles",
		ops: [NumClasses]string{Bundle: "vault.bundles"},
	}},
}

// Rows returns each kind's default configuration, in backend-list
// order: ddr, lpddr, vault.
func Rows() []Config {
	out := make([]Config, len(rows))
	for i, r := range rows {
		out[i] = r.cfg
	}
	return out
}

// unitNamesOf returns kind's PIM-unit counter names, or false for a
// kind with no row.
func unitNamesOf(kind string) (unitNames, bool) {
	for _, r := range rows {
		if r.cfg.kind == kind {
			return r.unit, true
		}
	}
	return unitNames{}, false
}

// Kind implements mem.Config.
func (c Config) Kind() string { return c.kind }

// Validate implements mem.Config.
func (c Config) Validate() error {
	if _, ok := unitNamesOf(c.kind); !ok {
		return fmt.Errorf("channel: no row for kind %q", c.kind)
	}
	fail := func(format string, args ...any) error {
		return fmt.Errorf(c.kind+": "+format, args...)
	}
	pow2 := func(n int) bool { return n > 0 && n&(n-1) == 0 }
	t := c.Timing
	switch {
	case !pow2(c.Channels):
		return fail("channel count %d must be a power of two >= 1", c.Channels)
	case !pow2(c.BanksPerChannel):
		return fail("bank count %d must be a power of two >= 1", c.BanksPerChannel)
	case !(t.TRCDNs > 0 && t.TCLNs > 0 && t.TRPNs > 0 && t.TRASNs > 0):
		return fail("non-positive DRAM timing (tRCD=%g tCL=%g tRP=%g tRAS=%g)", t.TRCDNs, t.TCLNs, t.TRPNs, t.TRASNs)
	case c.RowBytes < dram.LineBytes || c.RowBytes&(c.RowBytes-1) != 0:
		return fail("row size %d must be a power of two >= %d", c.RowBytes, dram.LineBytes)
	case c.PacketBytes < 1 || c.PacketBytes > dram.LineBytes:
		return fail("packet size %d must be 1..%d bytes", c.PacketBytes, dram.LineBytes)
	case !(c.LaneGBs > 0):
		return fail("non-positive lane bandwidth %g GB/s", c.LaneGBs)
	}
	if err := dram.CheckLaneRate(dram.BytesPerCycle(c.LaneGBs), dram.LineBytes); err != nil {
		return fail("lane %w", err)
	}
	if c.UnitsPerChannel == 0 {
		if c.Cost != ([NumClasses]uint64{}) {
			return fail("op costs %v need PIM units", c.Cost)
		}
		return nil
	}
	if !pow2(c.UnitsPerChannel) || c.UnitsPerChannel > c.BanksPerChannel {
		return fail("PIM unit count %d must be 0 or a power of two <= the bank count %d",
			c.UnitsPerChannel, c.BanksPerChannel)
	}
	if c.CycleMult < 1 {
		return fail("unit cycle multiplier %d must be at least 1", c.CycleMult)
	}
	return nil
}

// CanOffload implements mem.Config: op offloads when its class has a
// cost on this row's units.
func (c Config) CanOffload(op hmcatomic.Op) bool { return c.Cost[opClass[op]] != 0 }

// CanOffloadBundle implements mem.Config: generic RMW bundles offload
// when the units price them (programmable cores).
func (c Config) CanOffloadBundle() bool { return c.Cost[Bundle] != 0 }

// New implements mem.Config.
func (c Config) New(stats *sim.Stats) mem.Backend {
	if err := c.Validate(); err != nil {
		panic(err.Error())
	}
	unit, _ := unitNamesOf(c.kind)
	s := &System{
		cfg:   c,
		ctr:   resolveCounters(stats, c.kind, unit),
		route: dram.NewRoute(c.Channels, c.BanksPerChannel, c.RowBytes),
		banks: dram.NewBanks(stats, c.kind, c.Channels, c.BanksPerChannel, c.Timing, c.OpenPage),
		grid:  1,
	}
	rate := dram.BytesPerCycle(c.LaneGBs)
	if c.LinkPair {
		req, rsp := dram.NewLane(rate), dram.NewLane(rate)
		s.lanes = []*dram.Lane{req, rsp}
		for range c.Channels {
			s.wr, s.rd = append(s.wr, req), append(s.rd, rsp)
		}
	} else {
		for range c.Channels {
			bus := dram.NewLane(rate)
			s.lanes = append(s.lanes, bus)
			s.wr, s.rd = append(s.wr, bus), append(s.rd, bus)
		}
	}
	if units := c.Channels * c.UnitsPerChannel; units > 0 {
		s.unitShift = uint(bits.TrailingZeros(uint(c.BanksPerChannel / c.UnitsPerChannel)))
		s.unitFree = make([]uint64, units)
		s.unitWork = make([]uint64, units)
	}
	if c.AlignGrant {
		s.grid = c.CycleMult
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
	ops               [NumClasses]sim.Counter

	rdBytes, wrBytes sim.Counter // response and request directions

	work, busy, queue sim.Counter
}

// resolveCounters takes the per-request and traffic names from mem's
// alias table and the unit names from the kind's row.
func resolveCounters(stats *sim.Stats, kind string, unit unitNames) counters {
	private, unnamed := sim.NewStats(), 0
	reg := func(name string) sim.Counter {
		if name == "" {
			unnamed++
			return private.Counter(strconv.Itoa(unnamed))
		}
		return stats.Counter(name)
	}
	n := mem.Names(kind)
	ctr := counters{
		reads:    reg(n.Reads),
		writes:   reg(n.Writes),
		ucReads:  reg(n.UCReads),
		ucWrites: reg(n.UCWrites),
		atomics:  reg(n.Atomics),
		rdBytes:  reg(mem.Alias(mem.StatRspBytes, kind)),
		wrBytes:  reg(mem.Alias(mem.StatReqBytes, kind)),
		work:     reg(unit.work),
		busy:     reg(unit.busy),
		queue:    reg(unit.queue),
	}
	for c := range ctr.ops {
		ctr.ops[c] = reg(unit.ops[c])
	}
	return ctr
}

// System is an assembled channel backend.
type System struct {
	cfg Config
	ctr counters

	route dram.Route
	banks *dram.Banks
	// rd and wr are each channel's response- and request-direction
	// lanes; lanes lists every distinct lane once.
	rd, wr, lanes []*dram.Lane

	// A bank's unit is its channel's unit number bank>>unitShift.
	unitShift uint
	// grid is the unit grant alignment in core cycles (1 = none).
	grid uint64
	// unitFree is each unit's next-free cycle; unitWork is the
	// redundant per-unit ledger of unit cycles the audit checks against
	// the aggregate work counter.
	unitFree, unitWork []uint64

	// store is the functional value store (nil unless cfg.Functional).
	store map[memmap.Addr]hmcatomic.Value
}

// read is the shared critical-path read timing: command to the bank,
// bytes back over the channel's response lane.
func (s *System) read(addr memmap.Addr, now uint64, bytes int) (done uint64) {
	ch, bank, row := s.route.Map(addr)
	ready := s.banks.Access(ch, bank, row, now+s.cfg.Latency, 0)
	s.ctr.rdBytes.Add(uint64(bytes))
	return s.rd[ch].Reserve(ready, bytes) + s.cfg.Latency
}

// write is the shared posted-write timing: the data crosses the
// channel's request lane with the command, then occupies the bank.
func (s *System) write(addr memmap.Addr, now uint64, bytes int) (done uint64) {
	ch, bank, row := s.route.Map(addr)
	s.ctr.wrBytes.Add(uint64(bytes))
	arrive := s.wr[ch].Reserve(now, bytes) + s.cfg.Latency
	return s.banks.Access(ch, bank, row, arrive, 0)
}

// ReadLine implements mem.Backend: a 64-byte line fill on the critical
// path. Returns latency relative to now.
func (s *System) ReadLine(lineAddr memmap.Addr, now uint64) uint64 {
	s.ctr.reads.Inc()
	return s.read(lineAddr, now, dram.LineBytes) - now
}

// WriteLine implements mem.Backend: a posted line writeback. Latency is
// off the critical path; lane and bank occupancy are modeled.
func (s *System) WriteLine(lineAddr memmap.Addr, now uint64) {
	s.ctr.writes.Inc()
	s.write(lineAddr, now, dram.LineBytes)
}

// UCRead implements mem.Backend: a sub-line uncacheable read moves one
// packet. Returns latency.
func (s *System) UCRead(addr memmap.Addr, now uint64) uint64 {
	s.ctr.ucReads.Inc()
	return s.read(addr, now, s.cfg.PacketBytes) - now
}

// UCWrite implements mem.Backend. Returns the cycle at which the write
// is acknowledged (data written into the bank).
func (s *System) UCWrite(addr memmap.Addr, now uint64) uint64 {
	s.ctr.ucWrites.Inc()
	return s.write(addr, now, s.cfg.PacketBytes)
}

// CanOffload implements mem.Backend (see Config.CanOffload).
func (s *System) CanOffload(op hmcatomic.Op) bool { return s.cfg.CanOffload(op) }

// CanOffloadBundle implements mem.BundleBackend (see
// Config.CanOffloadBundle).
func (s *System) CanOffloadBundle() bool { return s.cfg.CanOffloadBundle() }

// Atomic implements mem.Backend: a fixed-function command executes on
// the PIM unit next to its bank.
func (s *System) Atomic(op hmcatomic.Op, addr memmap.Addr, imm hmcatomic.Value, now uint64) mem.AtomicTiming {
	t := s.execute(opClass[op], addr, now)
	if s.store != nil {
		r := hmcatomic.Apply(op, s.store[addr], imm)
		if r.Wrote {
			s.store[addr] = r.New
		}
		t.Flag = r.Flag
	}
	return t
}

// AtomicBundle implements mem.BundleBackend: a generic read-modify-write
// with no fixed-function encoding. It has no defined value semantics,
// so the functional store is left untouched.
func (s *System) AtomicBundle(addr memmap.Addr, now uint64) mem.AtomicTiming {
	return s.execute(Bundle, addr, now)
}

// execute times one offloaded atomic of class: the command packet
// crosses the request lane, the operand is sensed from the bank and
// staged, the bank's unit executes it (on a clock edge when grants
// align), and the acknowledgment or old value returns over the
// response lane. Reaching it for a class the row does not price means
// capability negotiation is broken, so it panics.
func (s *System) execute(class Class, addr memmap.Addr, now uint64) mem.AtomicTiming {
	cost := s.cfg.Cost[class]
	if cost == 0 {
		panic(fmt.Sprintf("%s: %s atomic offloaded to a backend whose PIM units do not execute it",
			s.cfg.kind, classNames[class]))
	}
	s.ctr.atomics.Inc()
	s.ctr.ops[class].Inc()
	ch, bank, row := s.route.Map(addr)
	packet := s.cfg.PacketBytes

	s.ctr.wrBytes.Add(uint64(packet))
	arrive := s.wr[ch].Reserve(now, packet) + s.cfg.Latency
	ready := s.banks.Access(ch, bank, row, arrive, 0) + s.cfg.StageLatency

	u := ch*s.cfg.UnitsPerChannel + bank>>s.unitShift
	start := max(ready, s.unitFree[u])
	if s.grid > 1 {
		start = (start + s.grid - 1) / s.grid * s.grid
	}
	busy := cost * s.cfg.CycleMult
	s.ctr.queue.Add(start - ready)
	s.unitFree[u] = start + busy
	s.unitWork[u] += cost
	s.ctr.work.Add(cost)
	s.ctr.busy.Add(busy)

	s.ctr.rdBytes.Add(uint64(packet))
	resp := s.rd[ch].Reserve(start+busy, packet) + s.cfg.Latency
	return mem.AtomicTiming{Accepted: max(now+2, arrive-s.cfg.Latency), ResponseAt: resp}
}

// Value returns the functional store's value at addr (functional
// configurations only; tests).
func (s *System) Value(addr memmap.Addr) hmcatomic.Value { return s.store[addr] }
