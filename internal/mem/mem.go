// Package mem defines the machine↔memory contract: a pluggable Backend
// that owns line fills, posted writebacks, uncacheable sub-line accesses,
// and — when the substrate has near-memory compute — instruction-level
// atomic offload. The machine, cache hierarchy, and POU speak only this
// interface; concrete substrates live in two packages:
//
//   - internal/hmc — the paper's HMC 2.0 cube chain (Table IV/V);
//   - mem/channel — one channel backend with three rows: ddr, a
//     DDR4-style host memory with no PIM units (the conventional-system
//     baseline); lpddr, an LPDDR5X-PIM point with bank-group MAC units in
//     a slower PIM clock; and vault, UPMEM-style vaults with one
//     general-purpose scalar core each, accepting whole RMW bundles.
//
// Both share one DRAM core, mem/dram: the epoch-budget Lane that meters
// links and buses, the row-buffer Banks model with its outcome audit,
// and the channel-interleaved Route. A channel row adds only data: its
// geometry, transport, PIM-unit costs and counter names.
//
// mem/backends is the fixed list of kinds, in the order CLI listings
// present them, with each kind's default configuration.
//
// Capability is negotiated, not implied: CanOffload reports per-op
// whether the backend can execute an atomic near memory, and the POU
// falls back to the host-atomic path when it cannot, so a GraphPIM
// configuration on a PIM-less backend degrades gracefully instead of
// panicking. BundleBackend is the general-purpose tier that offloads
// atomics with no fixed-function command; CanOffloadBundle reports
// whether a backend's near-memory units are programmable cores.
//
// Counters are backend-namespaced ("hmc.*", "ddr.*"). The package keeps
// a small alias table from canonical backend-neutral names ("mem.reads",
// "mem.req.flits") to each namespace's concrete counters, so report
// layers can read traffic generically while every backend keeps emitting
// its historical names — existing goldens and obs records stay stable.
// The table is the only declaration of those names: Names derives a
// kind's CounterNames from it.
package mem

import (
	"strings"

	"graphpim/internal/hmcatomic"
	"graphpim/internal/memmap"
	"graphpim/internal/sim"
)

// AtomicTiming reports when an offloaded atomic's request was accepted
// by the host-side interface (a non-returning atomic may retire then)
// and when its response arrives back at the host (a returning atomic's
// dependents wait for this).
type AtomicTiming struct {
	Accepted   uint64
	ResponseAt uint64
}

// LineBackend is the cache-facing subset of Backend: ReadLine is on the
// critical path and returns its latency; WriteLine is a posted writeback
// whose latency is off the critical path but whose bandwidth and bank
// occupancy still count.
type LineBackend interface {
	ReadLine(lineAddr memmap.Addr, now uint64) uint64
	WriteLine(lineAddr memmap.Addr, now uint64)
}

// Backend is one main-memory substrate, ready to serve an assembled
// machine. All methods are called from the single simulation goroutine
// driving one machine; implementations need no locking.
type Backend interface {
	LineBackend

	// UCRead and UCWrite are uncacheable sub-line accesses (at most 16
	// bytes), used for non-atomic accesses to the PIM memory region.
	// UCRead returns its latency; UCWrite returns the absolute cycle at
	// which the write is acknowledged.
	UCRead(addr memmap.Addr, now uint64) uint64
	UCWrite(addr memmap.Addr, now uint64) uint64

	// CanOffload reports whether the backend can execute op as a
	// near-memory atomic. The POU consults it when routing (capability
	// negotiation); Atomic must only be called for ops it accepts.
	CanOffload(op hmcatomic.Op) bool
	// Atomic times an offloaded atomic. Offloading changes when an
	// atomic completes, never what it computes (the host trace already
	// carries every value), so backends model no data and ignore imm;
	// the parameter stays for callers that record or forward requests.
	Atomic(op hmcatomic.Op, addr memmap.Addr, imm hmcatomic.Value, now uint64) AtomicTiming

	// Audit cross-checks the backend's redundant internal state (the
	// internal/check sanitizer registers it under Kind()). It must be
	// read-only: an audited run is byte-identical to an unaudited one.
	Audit(now uint64) error
}

// Config constructs a Backend. A machine configuration carries one; the
// zero default is the HMC backend (see machine.Config.Mem).
type Config interface {
	// Kind is the backend's short name and counter namespace prefix
	// ("hmc", "ddr").
	Kind() string
	// Validate reports a descriptive error for out-of-range geometry
	// instead of panicking mid-construction.
	Validate() error
	// New builds the backend, registering its counters on stats.
	New(stats *sim.Stats) Backend
	// CanOffload and CanOffloadBundle report, without building the
	// backend, what its CanOffload and (as a BundleBackend)
	// CanOffloadBundle answer; capability negotiation reads them.
	CanOffload(op hmcatomic.Op) bool
	CanOffloadBundle() bool
}

// BundleBackend is the optional general-purpose capability tier: a
// backend whose near-memory units are programmable cores (rather than
// fixed-function atomic units) can execute an arbitrary read-modify-
// write as a short instruction bundle, so even atomics with no HMC
// command encoding offload. The POU resolves the tier once, when it is
// built (pou.BundleCaps mirrors CanOffloadBundle structurally); AtomicBundle
// is only called after CanOffloadBundle reported true.
type BundleBackend interface {
	// CanOffloadBundle reports whether the backend accepts whole RMW
	// bundles for atomics outside the fixed-function command set.
	CanOffloadBundle() bool
	// AtomicBundle executes one read-modify-write bundle on the
	// near-memory core owning addr.
	AtomicBundle(addr memmap.Addr, now uint64) AtomicTiming
}

// CounterNames says where a backend keeps its per-request counters.
// Empty fields mean the backend does not model that quantity (e.g. a
// PIM-less backend has no Atomics counter); consumers must skip them.
type CounterNames struct {
	Reads    string // critical-path line fills
	Writes   string // posted line writebacks
	UCReads  string // uncacheable sub-line reads
	UCWrites string // uncacheable sub-line writes
	Atomics  string // offloaded near-memory atomics ("" when unsupported)
}

// Canonical backend-neutral counter names, resolvable against any run's
// stats snapshot through Stat.
const (
	StatReads    = "mem.reads"
	StatWrites   = "mem.writes"
	StatUCReads  = "mem.uc.reads"
	StatUCWrites = "mem.uc.writes"
	StatAtomics  = "mem.atomics"
	// StatReqFlits/StatRspFlits are HMC link traffic in FLITs;
	// StatReqBytes/StatRspBytes are the channel backend's transport
	// traffic in bytes (the ddr and lpddr data buses, the vault links).
	// The units differ, so the flit and byte aliases are kept separate
	// rather than summed.
	StatReqFlits = "mem.req.flits"
	StatRspFlits = "mem.rsp.flits"
	StatReqBytes = "mem.req.bytes"
	StatRspBytes = "mem.rsp.bytes"
)

// aliasTable maps each canonical name to the concrete counters the
// backends emit, and is the only declaration of those names (Names
// reads it). Backends keep their historical names (goldens and recorded
// obs runs depend on them); new namespaces extend the slices, and
// TestNamesRegisteredByBackends (mem/backends) checks each against the
// counters its backend registers.
var aliasTable = map[string][]string{
	StatReads:    {"hmc.reads", "ddr.reads", "lpddr.reads", "vault.reads"},
	StatWrites:   {"hmc.writes", "ddr.writes", "lpddr.writes", "vault.writes"},
	StatUCReads:  {"hmc.uc.reads", "ddr.uc.reads", "lpddr.uc.reads", "vault.uc.reads"},
	StatUCWrites: {"hmc.uc.writes", "ddr.uc.writes", "lpddr.uc.writes", "vault.uc.writes"},
	StatAtomics:  {"hmc.atomics", "lpddr.atomics", "vault.atomics"},
	StatReqFlits: {"hmc.flits.req"},
	StatRspFlits: {"hmc.flits.rsp"},
	StatReqBytes: {"ddr.bus.wr_bytes", "lpddr.bus.wr_bytes", "vault.link.req_bytes"},
	StatRspBytes: {"ddr.bus.rd_bytes", "lpddr.bus.rd_bytes", "vault.link.rsp_bytes"},
}

// Aliases returns the concrete counter names a canonical name resolves
// to (nil for an unknown canonical name).
func Aliases(canonical string) []string { return aliasTable[canonical] }

// Alias returns the alias of canonical in kind's namespace, or "".
func Alias(canonical, kind string) string {
	for _, a := range aliasTable[canonical] {
		if strings.HasPrefix(a, kind+".") {
			return a
		}
	}
	return ""
}

// Names derives kind's counter names from the alias table; a field is
// empty when the kind has no alias for it.
func Names(kind string) CounterNames {
	return CounterNames{
		Reads:    Alias(StatReads, kind),
		Writes:   Alias(StatWrites, kind),
		UCReads:  Alias(StatUCReads, kind),
		UCWrites: Alias(StatUCWrites, kind),
		Atomics:  Alias(StatAtomics, kind),
	}
}

// FlitTraffic reports whether kind's interconnect counters are
// FLIT-based (HMC links) rather than byte-based (unknown kinds report
// false).
func FlitTraffic(kind string) bool { return Alias(StatReqFlits, kind) != "" }

// Stat resolves a canonical backend-neutral counter name against a
// stats snapshot, summing every namespace's alias. Exactly one backend
// serves any given run, so at most one alias is nonzero and the sum is
// that backend's value. A name with no alias entry falls back to a
// direct lookup, so Stat is a superset of plain map access.
func Stat(stats map[string]uint64, canonical string) uint64 {
	names, ok := aliasTable[canonical]
	if !ok {
		return stats[canonical]
	}
	var total uint64
	for _, n := range names {
		total += stats[n]
	}
	return total
}
