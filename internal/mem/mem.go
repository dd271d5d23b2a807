// Package mem defines the machine↔memory contract: a pluggable Backend
// that owns line fills, posted writebacks, uncacheable sub-line accesses,
// and — when the substrate has near-memory compute — instruction-level
// atomic offload. The machine, cache hierarchy, and POU speak only this
// interface; concrete substrates live in the subpackages:
//
//   - mem/hmcbackend — the paper's HMC 2.0 cube chain (Table IV/V), a
//     thin adapter over internal/hmc;
//   - mem/ddr — a channel/rank/bank DDR4-style host-memory model with no
//     PIM units, the conventional-system baseline substrate;
//   - mem/lpddr — a mobile LPDDR5X-PIM point with bank-group MAC units
//     in a slower PIM clock domain;
//   - mem/vault — an UPMEM-style substrate with one general-purpose
//     scalar core per vault, accepting whole RMW bundles.
//
// All four share one DRAM core, mem/dram: the epoch-budget Lane that
// meters links and buses, the row-buffer Banks model with its outcome
// audit, and the channel-interleaved Route. A substrate adds only its
// geometry, interconnect rates, PIM units and counter names.
//
// Kinds register centrally through RegisterKind (see mem/backends),
// which also validates each backend's counter declaration against the
// alias table at registration time.
//
// Capability is negotiated, not implied: CanOffload reports per-op
// whether the backend can execute an atomic near memory, and the POU
// falls back to the host-atomic path when it cannot, so a GraphPIM
// configuration on a PIM-less backend degrades gracefully instead of
// panicking. Backends whose near-memory units are programmable cores
// additionally implement BundleBackend, the general-purpose tier that
// offloads atomics with no fixed-function command.
//
// Counters are backend-namespaced ("hmc.*", "ddr.*"). The package keeps
// a small alias table from canonical backend-neutral names ("mem.reads",
// "mem.req.flits") to each namespace's concrete counters, so report
// layers can read traffic generically while every backend keeps emitting
// its historical names — existing goldens and obs records stay stable.
package mem

import (
	"fmt"
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
	// Flag is the atomic flag from functional execution; meaningful only
	// for backends built with a functional store.
	Flag bool
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
	// Atomic executes an offloaded atomic. imm is used only by
	// functional backends.
	Atomic(op hmcatomic.Op, addr memmap.Addr, imm hmcatomic.Value, now uint64) AtomicTiming

	// Counters names the backend's counter namespace so the machine's
	// cross-subsystem stat audits and report layers can find its
	// traffic without hard-coding a substrate.
	Counters() CounterNames

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
}

// BundleBackend is the optional general-purpose capability tier: a
// backend whose near-memory units are programmable cores (rather than
// fixed-function atomic units) can execute an arbitrary read-modify-
// write as a short instruction bundle, so even atomics with no HMC
// command encoding offload. The POU negotiates the tier per command
// (pou.BundleCaps mirrors CanOffloadBundle structurally); AtomicBundle
// is only called after CanOffloadBundle reported true.
type BundleBackend interface {
	// CanOffloadBundle reports whether the backend accepts whole RMW
	// bundles for atomics outside the fixed-function command set.
	CanOffloadBundle() bool
	// AtomicBundle executes one read-modify-write bundle on the
	// near-memory core owning addr.
	AtomicBundle(addr memmap.Addr, now uint64) AtomicTiming
}

// CounterNames declares where a backend keeps its per-request counters.
// Empty fields mean the backend does not model that quantity (e.g. a
// PIM-less backend has no Atomics counter); consumers must skip them.
type CounterNames struct {
	// Namespace is the prefix every counter of the backend starts with
	// ("hmc", "ddr").
	Namespace string

	Reads    string // critical-path line fills
	Writes   string // posted line writebacks
	UCReads  string // uncacheable sub-line reads
	UCWrites string // uncacheable sub-line writes
	Atomics  string // offloaded near-memory atomics ("" when unsupported)

	// ReqTraffic and RspTraffic are the request/response interconnect
	// traffic counters in the backend's own unit (FLITs for HMC, bytes
	// for DDR); "" when the backend does not model the interconnect.
	ReqTraffic string
	RspTraffic string
}

// Canonical backend-neutral counter names, resolvable against any run's
// stats snapshot through Stat.
const (
	StatReads    = "mem.reads"
	StatWrites   = "mem.writes"
	StatUCReads  = "mem.uc.reads"
	StatUCWrites = "mem.uc.writes"
	StatAtomics  = "mem.atomics"
	// StatReqFlits/StatRspFlits are HMC link traffic; StatReqBytes/
	// StatRspBytes are DDR data-bus traffic. The units differ, so the
	// flit and byte aliases are kept separate rather than summed.
	StatReqFlits = "mem.req.flits"
	StatRspFlits = "mem.rsp.flits"
	StatReqBytes = "mem.req.bytes"
	StatRspBytes = "mem.rsp.bytes"
)

// aliasTable maps each canonical name to the concrete counters the
// backends emit. Backends keep their historical names (goldens and
// recorded obs runs depend on them); new namespaces extend the slices.
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

// kindEntry is one registered backend kind.
type kindEntry struct {
	kind string
	def  func() Config
	// flitTraffic records whether the kind's interconnect counters are
	// FLIT-based (HMC links) rather than byte-based (data buses); false
	// also for kinds that model no interconnect.
	flitTraffic bool
	// bundles records whether the kind's default backend implements the
	// BundleBackend general-purpose tier.
	bundles bool
}

// registry holds every registered backend kind in registration order.
// Registration happens centrally (internal/mem/backends) so the order is
// explicit rather than an accident of package-init sequencing.
var registry []kindEntry

// RegisterKind adds a backend kind to the registry. def must return the
// kind's default configuration; callers register once, at init time.
//
// Registration builds a throwaway backend from the default configuration
// and validates — loudly, by panicking — that every name the backend's
// Counters() declares resolves through the alias table to its canonical
// counterpart. Without this check a new backend would silently report 0
// through mem.Stat (reads, bus traffic, atomics) into every existing
// table: the alias table only sums the names it knows about.
func RegisterKind(def func() Config) {
	cfg := def()
	kind := cfg.Kind()
	if kind == "" {
		panic("mem: RegisterKind with an empty kind")
	}
	for _, e := range registry {
		if e.kind == kind {
			panic(fmt.Sprintf("mem: backend kind %q registered twice", kind))
		}
	}
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("mem: default configuration of kind %q is invalid: %v", kind, err))
	}
	b := cfg.New(sim.NewStats())
	names := b.Counters()
	if err := checkCounterNames(kind, names); err != nil {
		panic(err.Error())
	}
	bb, ok := b.(BundleBackend)
	registry = append(registry, kindEntry{
		kind:        kind,
		def:         def,
		flitTraffic: inAliases(StatReqFlits, names.ReqTraffic) || inAliases(StatRspFlits, names.RspTraffic),
		bundles:     ok && bb.CanOffloadBundle(),
	})
}

// inAliases reports whether name appears in the canonical's alias slice.
func inAliases(canonical, name string) bool {
	for _, a := range aliasTable[canonical] {
		if a == name {
			return true
		}
	}
	return false
}

// checkCounterNames validates a backend's counter declaration against
// the alias table: the namespace must equal the kind, every declared
// name must live under it, and every declared name must resolve through
// the alias table to the canonical counter consumers read.
func checkCounterNames(kind string, names CounterNames) error {
	if names.Namespace != kind {
		return fmt.Errorf("mem: backend kind %q declares counter namespace %q", kind, names.Namespace)
	}
	check := func(field, name string, canonicals ...string) error {
		if name == "" {
			return nil // the backend does not model this quantity
		}
		if !strings.HasPrefix(name, kind+".") {
			return fmt.Errorf("mem: backend %q counter %s = %q is outside its namespace", kind, field, name)
		}
		for _, c := range canonicals {
			if inAliases(c, name) {
				return nil
			}
		}
		return fmt.Errorf("mem: backend %q counter %s = %q does not resolve through the alias table "+
			"(canonical %s) — mem.Stat would silently report 0; extend mem.aliasTable",
			kind, field, name, strings.Join(canonicals, "/"))
	}
	pairs := []struct {
		field, name string
		canonicals  []string
	}{
		{"Reads", names.Reads, []string{StatReads}},
		{"Writes", names.Writes, []string{StatWrites}},
		{"UCReads", names.UCReads, []string{StatUCReads}},
		{"UCWrites", names.UCWrites, []string{StatUCWrites}},
		{"Atomics", names.Atomics, []string{StatAtomics}},
		{"ReqTraffic", names.ReqTraffic, []string{StatReqFlits, StatReqBytes}},
		{"RspTraffic", names.RspTraffic, []string{StatRspFlits, StatRspBytes}},
	}
	for _, p := range pairs {
		if err := check(p.field, p.name, p.canonicals...); err != nil {
			return err
		}
	}
	return nil
}

// Kinds returns every registered backend kind in registration order —
// the order CLI listings and error messages present them in.
func Kinds() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.kind
	}
	return out
}

// DefaultConfig returns the registered default configuration for kind,
// or false when the kind is unknown.
func DefaultConfig(kind string) (Config, bool) {
	for _, e := range registry {
		if e.kind == kind {
			return e.def(), true
		}
	}
	return nil, false
}

// FlitTraffic reports whether a registered kind's interconnect counters
// are FLIT-based (HMC links) rather than byte-based (unknown kinds
// report false).
func FlitTraffic(kind string) bool {
	for _, e := range registry {
		if e.kind == kind {
			return e.flitTraffic
		}
	}
	return false
}

// BundleCapable reports whether a registered kind's default backend
// implements the BundleBackend general-purpose tier.
func BundleCapable(kind string) bool {
	for _, e := range registry {
		if e.kind == kind {
			return e.bundles
		}
	}
	return false
}

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
