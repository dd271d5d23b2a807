// Package vault models a general-purpose PIM substrate in the spirit of
// UPMEM's DRAM processing units: each memory vault pairs its DRAM banks
// with one simple in-order scalar core and a small WRAM-like scratchpad.
// There are no fixed-function atomic units — the core executes every
// read-modify-write as a short instruction bundle (load into WRAM,
// compute, store back), so any atomic offloads, including ones with no
// HMC command encoding. This is the general-purpose capability tier the
// POU negotiates per command (mem.BundleBackend): CanOffload accepts the
// whole fixed-function set and CanOffloadBundle accepts everything else.
//
// The cost structure is the inverse of the cube's: capability is
// maximal, throughput is not. Each op is issue-rate-limited on a scalar
// core (several instructions, each paying the slow-core issue gap), FP
// runs in software emulation, and one core serves a whole vault — so a
// GraphPIM configuration on this substrate wins over its own baseline,
// but by less than on the cube's per-vault functional units.
package vault

import (
	"fmt"

	"graphpim/internal/hmcatomic"
	"graphpim/internal/mem"
	"graphpim/internal/mem/dram"
	"graphpim/internal/memmap"
	"graphpim/internal/sim"
)

// Config describes the vault-core memory system.
type Config struct {
	// Vaults is the number of vaults, each with its own scalar core
	// (power of two).
	Vaults int
	// BanksPerVault is the DRAM bank count behind each vault (power of
	// two).
	BanksPerVault int

	// DRAM timing in nanoseconds.
	TRCDNs, TCLNs, TRPNs, TRASNs float64

	// LinkGBs is the host-link bandwidth per direction in GB/s.
	LinkGBs float64
	// LinkLatency is the fixed one-way link traversal latency in core
	// cycles.
	LinkLatency uint64

	// IssueGap is the core cycles per instruction issued by a vault
	// core: the slow-core clock ratio times its (in-order, multithread-
	// interleaved) CPI.
	IssueGap uint64
	// WRAMLat is the scratchpad access latency in core cycles, paid once
	// per bundle to move the operand between the bank sense and the
	// core's WRAM.
	WRAMLat uint64
	// IntInstrs, CASInstrs, FPInstrs, and BundleInstrs are the bundle
	// lengths: plain integer RMW, compare-and-swap variants, software-
	// emulated FP, and the generic bundle for atomics outside the
	// fixed-function command set. Zero selects the defaults.
	IntInstrs, CASInstrs, FPInstrs, BundleInstrs uint64

	// OpenPage keeps DRAM rows open between accesses; RowBytes is the
	// row size per bank.
	RowBytes uint64
	OpenPage bool

	// Functional attaches a value store so offloaded atomics execute
	// functionally (generic bundles have no fixed semantics and leave
	// the store untouched).
	Functional bool
}

// DefaultConfig returns a 16-vault configuration: 8 banks per vault,
// DRAM-core timings matching the cube (same arrays, different logic
// layer), a 40GB/s-per-direction host link, and scalar cores issuing one
// instruction every 4 core cycles with software FP.
func DefaultConfig() Config {
	return Config{
		Vaults:        16,
		BanksPerVault: 8,
		TRCDNs:        13.75,
		TCLNs:         13.75,
		TRPNs:         13.75,
		TRASNs:        27.5,
		LinkGBs:       40,
		LinkLatency:   12,
		IssueGap:      4,
		WRAMLat:       3,
		OpenPage:      true,
		RowBytes:      8192,
	}
}

// Default bundle lengths: load/op/store plus loop overhead for CAS, a
// software float path for FP, and a conservative generic RMW.
const (
	defaultIntInstrs    = 4
	defaultCASInstrs    = 6
	defaultFPInstrs     = 24
	defaultBundleInstrs = 10
)

// Kind implements mem.Config.
func (c Config) Kind() string { return "vault" }

// Validate implements mem.Config.
func (c Config) Validate() error {
	pow2 := func(name string, n int) error {
		if n <= 0 || n&(n-1) != 0 {
			return fmt.Errorf("vault: %s %d must be a power of two >= 1", name, n)
		}
		return nil
	}
	if err := pow2("vault count", c.Vaults); err != nil {
		return err
	}
	if err := pow2("bank count", c.BanksPerVault); err != nil {
		return err
	}
	if c.TRCDNs <= 0 || c.TCLNs <= 0 || c.TRPNs <= 0 || c.TRASNs <= 0 {
		return fmt.Errorf("vault: non-positive DRAM timing (tRCD=%g tCL=%g tRP=%g tRAS=%g)",
			c.TRCDNs, c.TCLNs, c.TRPNs, c.TRASNs)
	}
	if c.LinkGBs <= 0 {
		return fmt.Errorf("vault: non-positive link bandwidth %g GB/s", c.LinkGBs)
	}
	if err := dram.CheckLaneRate(dram.BytesPerCycle(c.LinkGBs), lineBytes); err != nil {
		return fmt.Errorf("vault: link %w", err)
	}
	if c.IssueGap < 1 {
		return fmt.Errorf("vault: core issue gap %d must be at least 1 cycle", c.IssueGap)
	}
	if c.RowBytes != 0 {
		if c.RowBytes&(c.RowBytes-1) != 0 || c.RowBytes < lineBytes {
			return fmt.Errorf("vault: row size %d must be a power of two >= %d", c.RowBytes, lineBytes)
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
		c.RowBytes = 8192
	}
	if c.IntInstrs == 0 {
		c.IntInstrs = defaultIntInstrs
	}
	if c.CASInstrs == 0 {
		c.CASInstrs = defaultCASInstrs
	}
	if c.FPInstrs == 0 {
		c.FPInstrs = defaultFPInstrs
	}
	if c.BundleInstrs == 0 {
		c.BundleInstrs = defaultBundleInstrs
	}
	bytesPerCycle := dram.BytesPerCycle(c.LinkGBs)
	s := &System{
		cfg:   c,
		ctr:   resolveCounters(stats),
		route: dram.NewRoute(c.Vaults, c.BanksPerVault, c.RowBytes),
		banks: dram.NewBanks(stats, "vault", c.Vaults, c.BanksPerVault,
			dram.Timing{TRCDNs: c.TRCDNs, TCLNs: c.TCLNs, TRPNs: c.TRPNs, TRASNs: c.TRASNs}, c.OpenPage),
		reqLink:     dram.NewLane(bytesPerCycle),
		rspLink:     dram.NewLane(bytesPerCycle),
		coreFree:    make([]uint64, c.Vaults),
		vaultInstrs: make([]uint64, c.Vaults),
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
	bundles           sim.Counter

	reqBytes sim.Counter
	rspBytes sim.Counter

	coreInstrs sim.Counter
	coreBusy   sim.Counter
	coreQueue  sim.Counter
}

func resolveCounters(stats *sim.Stats) counters {
	return counters{
		reads:      stats.Counter("vault.reads"),
		writes:     stats.Counter("vault.writes"),
		ucReads:    stats.Counter("vault.uc.reads"),
		ucWrites:   stats.Counter("vault.uc.writes"),
		atomics:    stats.Counter("vault.atomics"),
		bundles:    stats.Counter("vault.bundles"),
		reqBytes:   stats.Counter("vault.link.req_bytes"),
		rspBytes:   stats.Counter("vault.link.rsp_bytes"),
		coreInstrs: stats.Counter("vault.core.instrs"),
		coreBusy:   stats.Counter("vault.core.busy_cycles"),
		coreQueue:  stats.Counter("vault.core.queue_cycles"),
	}
}

const (
	// lineBytes is a cache-line transfer; packetBytes is the atomic
	// request/response packet (command + 16-byte operand or old value).
	lineBytes   = 64
	packetBytes = 16
)

// System is the assembled vault-core memory system.
type System struct {
	cfg Config
	ctr counters

	route            dram.Route
	banks            *dram.Banks
	reqLink, rspLink *dram.Lane
	// coreFree is each vault core's next-free cycle; vaultInstrs is the
	// redundant per-vault issue ledger the audit checks against the
	// aggregate instruction counter.
	coreFree    []uint64
	vaultInstrs []uint64

	// store is the functional value store (nil unless cfg.Functional).
	store map[memmap.Addr]hmcatomic.Value
}

// read is the shared critical-path read timing: request over the link,
// bank access, bytes back over the response link.
func (s *System) read(addr memmap.Addr, now uint64, bytes int) (done uint64) {
	vault, bank, row := s.route.Map(addr)
	arrive := now + s.cfg.LinkLatency
	ready := s.banks.Access(vault, bank, row, arrive, 0)
	s.ctr.rspBytes.Add(uint64(bytes))
	return s.rspLink.Reserve(ready, bytes) + s.cfg.LinkLatency
}

// write is the shared posted-write timing: the data crosses the request
// link, then occupies the bank.
func (s *System) write(addr memmap.Addr, now uint64, bytes int) (done uint64) {
	vault, bank, row := s.route.Map(addr)
	s.ctr.reqBytes.Add(uint64(bytes))
	arrive := s.reqLink.Reserve(now, bytes) + s.cfg.LinkLatency
	return s.banks.Access(vault, bank, row, arrive, 0)
}

// ReadLine implements mem.Backend. Returns latency relative to now.
func (s *System) ReadLine(lineAddr memmap.Addr, now uint64) uint64 {
	s.ctr.reads.Inc()
	return s.read(lineAddr, now, lineBytes) - now
}

// WriteLine implements mem.Backend: a posted line writeback.
func (s *System) WriteLine(lineAddr memmap.Addr, now uint64) {
	s.ctr.writes.Inc()
	s.write(lineAddr, now, lineBytes)
}

// UCRead implements mem.Backend: a sub-line uncacheable read moves one
// packet. Returns latency.
func (s *System) UCRead(addr memmap.Addr, now uint64) uint64 {
	s.ctr.ucReads.Inc()
	return s.read(addr, now, packetBytes) - now
}

// UCWrite implements mem.Backend. Returns the acknowledgment cycle.
func (s *System) UCWrite(addr memmap.Addr, now uint64) uint64 {
	s.ctr.ucWrites.Inc()
	return s.write(addr, now, packetBytes)
}

// CanOffload implements mem.Backend: a general-purpose core executes
// every fixed-function command (FP in software emulation).
func (s *System) CanOffload(op hmcatomic.Op) bool { return true }

// CanOffloadBundle implements mem.BundleBackend: atomics outside the
// fixed-function command set offload as generic RMW bundles.
func (s *System) CanOffloadBundle() bool { return true }

// bundleLen returns the instruction count of the bundle a vault core
// runs for op.
func (s *System) bundleLen(op hmcatomic.Op) uint64 {
	switch {
	case hmcatomic.IsFloat(op):
		return s.cfg.FPInstrs
	case op == hmcatomic.CasEQ8 || op == hmcatomic.CasZero16 ||
		op == hmcatomic.CasGT16 || op == hmcatomic.CasLT16 ||
		op == hmcatomic.Eq8 || op == hmcatomic.Eq16:
		return s.cfg.CASInstrs
	default:
		return s.cfg.IntInstrs
	}
}

// execBundle runs one bundle of the given instruction count on the core
// owning addr and returns its timing: request over the link, operand
// sensed from the bank into WRAM, issue-rate-limited execution on the
// (serial) vault core, acknowledgment back over the response link.
func (s *System) execBundle(addr memmap.Addr, instrs, now uint64) mem.AtomicTiming {
	vault, bank, row := s.route.Map(addr)

	s.ctr.reqBytes.Add(packetBytes)
	arrive := s.reqLink.Reserve(now, packetBytes) + s.cfg.LinkLatency
	ready := s.banks.Access(vault, bank, row, arrive, 0) + s.cfg.WRAMLat

	start := max(ready, s.coreFree[vault])
	s.ctr.coreQueue.Add(start - ready)
	busy := instrs * s.cfg.IssueGap
	s.coreFree[vault] = start + busy
	s.ctr.coreInstrs.Add(instrs)
	s.ctr.coreBusy.Add(busy)
	s.vaultInstrs[vault] += instrs
	done := start + busy

	s.ctr.rspBytes.Add(packetBytes)
	resp := s.rspLink.Reserve(done, packetBytes) + s.cfg.LinkLatency
	return mem.AtomicTiming{Accepted: max(now+2, arrive-s.cfg.LinkLatency), ResponseAt: resp}
}

// Atomic implements mem.Backend: a fixed-function-set atomic executes
// as a short instruction bundle on the vault core.
func (s *System) Atomic(op hmcatomic.Op, addr memmap.Addr, imm hmcatomic.Value, now uint64) mem.AtomicTiming {
	s.ctr.atomics.Inc()
	t := s.execBundle(addr, s.bundleLen(op), now)
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
// with no fixed-function encoding runs as a longer bundle. It has no
// defined value semantics, so the functional store is left untouched.
func (s *System) AtomicBundle(addr memmap.Addr, now uint64) mem.AtomicTiming {
	s.ctr.atomics.Inc()
	s.ctr.bundles.Inc()
	return s.execBundle(addr, s.cfg.BundleInstrs, now)
}

// Value returns the functional store's value at addr (functional
// configurations only; tests).
func (s *System) Value(addr memmap.Addr) hmcatomic.Value { return s.store[addr] }
