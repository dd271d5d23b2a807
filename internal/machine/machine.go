// Package machine assembles the full simulated system of Table IV: 16
// out-of-order cores with private L1/L2 and a shared L3, a PIM offloading
// unit per core, and a pluggable main-memory backend (the HMC cube chain
// by default; see internal/mem). It implements the three system
// configurations the paper evaluates:
//
//   - Baseline: conventional architecture, host atomics through the caches;
//   - U-PEI: idealized PEI — candidates that hit in cache execute host-side
//     with no coherence cost, misses offload to the HMC;
//   - GraphPIM: PMR atomics offload unconditionally and all PMR accesses
//     bypass the cache hierarchy.
//
// The machine speaks only the mem.Backend contract: offload capability is
// negotiated per atomic command through CanOffload, so a configuration
// that asks for offloading on a substrate without the required PIM units
// degrades to host atomics instead of failing.
package machine

import (
	"fmt"
	"math"
	"math/bits"

	"graphpim/internal/cache"
	"graphpim/internal/check"
	"graphpim/internal/cpu"
	"graphpim/internal/hmc"
	"graphpim/internal/hmcatomic"
	"graphpim/internal/mem"
	"graphpim/internal/memmap"
	"graphpim/internal/pou"
	"graphpim/internal/sim"
	"graphpim/internal/trace"
)

// Config is a complete machine configuration.
type Config struct {
	// Name labels the configuration in results ("Baseline", "U-PEI",
	// "GraphPIM").
	Name string
	// NumCores is the core count (Table IV: 16).
	NumCores int

	CPU   cpu.Config
	Cache cache.Config
	// HMC tunes the per-cube parameters of the default HMC backend
	// (ignored when Mem overrides the backend entirely).
	HMC hmc.Config
	// POU is the offload configuration before capability negotiation:
	// the assembled machine runs pou.Negotiate(POU, substrate).
	POU pou.Config

	// HMCCubes chains multiple cubes (HMC supports up to 8); addresses
	// interleave across the chain at page granularity and far cubes pay
	// pass-through hop latency. Ignored when Mem is set.
	HMCCubes int

	// Mem selects the main-memory backend. Nil means the default HMC
	// chain built from HMC/HMCCubes; set it (e.g. to a ddr.Config) to
	// run the same machine on a different substrate.
	Mem mem.Config

	// HostAtomicRMW is the extra in-core cycles a host atomic spends
	// locking the line and performing the read-modify-write.
	HostAtomicRMW uint64
	// HostFPAtomicExtra is the additional cost of a floating-point
	// accumulate on the host: there is no FP lock instruction, so the
	// compiler emits a load + FP add + lock cmpxchg retry loop.
	HostFPAtomicExtra uint64
	// UPEIHostOpLat is the latency of executing a PEI operation in the
	// host-side PIM unit on a cache hit.
	UPEIHostOpLat uint64
	// UPEICheckPenalty is the cache-port contention each U-PEI locality
	// check imposes on the core's in-flight loads (the cache checking
	// time GraphPIM avoids, Section IV-B1).
	UPEICheckPenalty uint64
	// UCIssueGap is the minimum initiation interval between uncacheable
	// accesses from one core: UC accesses are ordered and issue from a
	// small non-speculative queue, so they enjoy far less memory-level
	// parallelism than ordinary cacheable misses.
	UCIssueGap uint64

	// Deprecated: ignored; the machine always runs the serial event
	// loop. Kept only so existing callers still compile; the next
	// benchmark change removes it.
	Shards int

	// Check selects the simulation sanitizer level (internal/check).
	// Off — the default — costs nothing on the hot path; Periodic
	// audits every subsystem's redundant state at CheckInterval-cycle
	// checkpoints and at end of run, panicking with a *check.Failure on
	// the first violated invariant. Audits never change results.
	Check check.Level
	// CheckInterval overrides the periodic audit spacing in cycles
	// (0 means check.DefaultInterval).
	CheckInterval uint64
}

// Baseline returns the conventional-architecture configuration.
func Baseline() Config { return newConfig("Baseline", pou.Baseline()) }

// GraphPIM returns the paper's configuration; extended enables the FP
// atomic extension.
func GraphPIM(extended bool) Config {
	name := "GraphPIM"
	if extended {
		name = "GraphPIM+FP"
	}
	return newConfig(name, pou.GraphPIM(extended))
}

// UPEI returns the idealized PEI upper bound; extended enables the FP
// atomic extension.
func UPEI(extended bool) Config {
	name := "U-PEI"
	if extended {
		name = "U-PEI+FP"
	}
	return newConfig(name, pou.UPEI(extended))
}

func newConfig(name string, p pou.Config) Config {
	const cores = 16
	return Config{
		Name:              name,
		NumCores:          cores,
		CPU:               cpu.DefaultConfig(),
		Cache:             cache.DefaultConfig(cores),
		HMC:               hmc.DefaultConfig(),
		POU:               p,
		HMCCubes:          1,
		HostAtomicRMW:     8,
		HostFPAtomicExtra: 30,
		UPEIHostOpLat:     2,
		UPEICheckPenalty:  8,
		UCIssueGap:        16,
	}
}

// Result summarizes one simulation run.
type Result struct {
	Config       string
	Cycles       uint64
	Instructions uint64
	Stats        map[string]uint64
}

// IPC returns the average per-core instructions per cycle, or NaN when
// the run retired over zero cycles (or zero cores) — the same
// undefined-ratio policy as sim.Stats.Ratio, so report layers render
// "n/a" instead of a misleading 0.
func (r Result) IPC(numCores int) float64 {
	if r.Cycles == 0 || numCores == 0 {
		return math.NaN()
	}
	return float64(r.Instructions) / float64(r.Cycles) / float64(numCores)
}

// MPKI returns misses per kilo-instruction for the given cache level
// counter prefix ("cache.l1", "cache.l2", "cache.l3"), or NaN when no
// instructions retired.
func (r Result) MPKI(level string) float64 {
	if r.Instructions == 0 {
		return math.NaN()
	}
	return float64(r.Stats[level+".miss"]) * 1000 / float64(r.Instructions)
}

// Speedup returns base's execution time divided by r's, or NaN when r
// ran for zero cycles.
func (r Result) Speedup(base Result) float64 {
	if r.Cycles == 0 {
		return math.NaN()
	}
	return float64(base.Cycles) / float64(r.Cycles)
}

// TotalFlits returns request+response link FLITs, resolved through the
// backend-neutral counter aliases (zero for backends whose interconnect
// is not FLIT-based).
func (r Result) TotalFlits() uint64 {
	return mem.Stat(r.Stats, mem.StatReqFlits) + mem.Stat(r.Stats, mem.StatRspFlits)
}

// MemStat resolves a canonical backend-neutral counter name ("mem.reads",
// "mem.req.bytes", ...) against the result's stats; see mem.Stat.
func (r Result) MemStat(canonical string) uint64 {
	return mem.Stat(r.Stats, canonical)
}

// machCounters holds pre-resolved handles for every counter the machine
// bumps while routing memory operations; loads/stores are indexed by
// memmap.Region so the hot path never builds a counter name.
type machCounters struct {
	loads  [3]sim.Counter
	stores [3]sim.Counter

	ucLoads  sim.Counter
	ucStores sim.Counter

	hostAtomics sim.Counter
	pimAtomics  sim.Counter
	upeiHostOps sim.Counter

	candidates     sim.Counter
	candidatesHit  sim.Counter
	candidatesMiss sim.Counter

	barriers sim.Counter
}

func resolveMachCounters(stats *sim.Stats) machCounters {
	var ctr machCounters
	for _, r := range []memmap.Region{memmap.RegionMeta, memmap.RegionStruct, memmap.RegionProperty} {
		ctr.loads[r] = stats.Counter("mem.loads." + r.String())
		ctr.stores[r] = stats.Counter("mem.stores." + r.String())
	}
	ctr.ucLoads = stats.Counter("mem.uc_loads")
	ctr.ucStores = stats.Counter("mem.uc_stores")
	ctr.hostAtomics = stats.Counter("mem.host_atomics")
	ctr.pimAtomics = stats.Counter("mem.pim_atomics")
	ctr.upeiHostOps = stats.Counter("mem.upei_host_ops")
	ctr.candidates = stats.Counter("pou.candidates")
	ctr.candidatesHit = stats.Counter("pou.candidates.hit")
	ctr.candidatesMiss = stats.Counter("pou.candidates.miss")
	ctr.barriers = stats.Counter("machine.barriers")
	return ctr
}

// Machine is one assembled system ready to replay a trace.
type Machine struct {
	cfg   Config
	stats *sim.Stats
	ctr   machCounters
	space *memmap.AddressSpace
	mem   mem.Backend
	// memKind is the backend's short name ("hmc", "ddr"), used as its
	// sanitizer subsystem label.
	memKind string
	cache   *cache.Hierarchy
	pou     *pou.Unit
	cores   []*cpu.Core
	// ucFree is each core's next allowed UC issue time (UC ordering).
	ucFree []uint64
	// routed holds, per core, the decision AtomicBlocking made for the
	// atomic that core is about to issue; Atomic consumes it so each
	// atomic is routed once.
	routed []routedAtomic
	// checks is the sanitizer registry; nil when cfg.Check is Off.
	checks *check.Registry
}

// memConfig resolves the effective backend configuration: Mem when set,
// otherwise the default HMC chain built from the HMC/HMCCubes knobs.
func (c Config) memConfig() mem.Config {
	if c.Mem != nil {
		return c.Mem
	}
	cubes := c.HMCCubes
	if cubes == 0 {
		cubes = 1
	}
	hc := hmc.DefaultPoolConfig(cubes)
	hc.Cube = c.HMC
	return hc
}

// substrateOf summarizes a constructed backend's capability tiers for
// pou.Negotiate.
func substrateOf(b mem.Backend) pou.Substrate {
	sub := pou.Substrate{Caps: b}
	if bb, ok := b.(mem.BundleBackend); ok && bb.CanOffloadBundle() {
		sub.Bundle = true
	}
	return sub
}

// Substrate resolves the pou.Substrate a machine assembled from c would
// negotiate against, constructing only the memory backend. The placement
// tuner (internal/tune) consults it before committing a configuration,
// so its substrate view is exactly the one machine assembly will use.
func (c Config) Substrate() pou.Substrate {
	return substrateOf(c.memConfig().New(sim.NewStats()))
}

// NewSource assembles a machine replaying src, which must have been
// generated against space and have at most cfg.NumCores threads. Replay
// is byte-identical across source kinds (a streamed *trace.Stream, or
// a materialized *trace.Trace oracle): the cores consume the same
// record sequence either way, only the window granularity differs.
func NewSource(cfg Config, space *memmap.AddressSpace, src trace.Source) *Machine {
	if src.NumThreads() > cfg.NumCores {
		panic(fmt.Sprintf("machine: trace has %d threads but machine has %d cores",
			src.NumThreads(), cfg.NumCores))
	}
	if err := cfg.Validate(); err != nil {
		panic("machine: " + err.Error())
	}
	st := sim.NewStats()
	memCfg := cfg.memConfig()
	backend := memCfg.New(st)
	pouCfg := pou.Negotiate(cfg.POU, substrateOf(backend))
	m := &Machine{
		cfg:     cfg,
		stats:   st,
		ctr:     resolveMachCounters(st),
		space:   space,
		mem:     backend,
		memKind: memCfg.Kind(),
		pou:     pou.NewWithCaps(pouCfg, space, backend),
	}
	m.cache = cache.New(cfg.Cache, m.mem, st)
	m.ucFree = make([]uint64, cfg.NumCores)
	m.routed = make([]routedAtomic, cfg.NumCores)
	for c := 0; c < cfg.NumCores; c++ {
		cur := trace.SliceCursor(nil)
		if c < src.NumThreads() {
			cur = src.Cursor(c)
		}
		m.cores = append(m.cores, cpu.NewCoreCursor(c, cfg.CPU, m, cur, st))
	}
	if cfg.Check != check.Off {
		m.checks = check.NewRegistry(cfg.Check, cfg.CheckInterval)
		m.registerAuditors()
	}
	return m
}

// Stats exposes the live counter registry.
func (m *Machine) Stats() *sim.Stats { return m.stats }

// Load implements cpu.MemorySystem.
func (m *Machine) Load(core int, in trace.Instr, now uint64) cpu.MemResult {
	d := m.pou.Route(in)
	if d.Path == pou.PathUC {
		m.ctr.ucLoads.Inc()
		at := now
		if m.ucFree[core] > at {
			at = m.ucFree[core]
		}
		m.ucFree[core] = at + m.cfg.UCIssueGap
		lat := m.mem.UCRead(in.Addr, at)
		return cpu.MemResult{CompleteAt: at + lat, OffChip: true}
	}
	m.ctr.loads[in.Region].Inc()
	r := m.cache.Access(core, in.Addr, false, now)
	return cpu.MemResult{CompleteAt: now + r.Latency, OffChip: r.Level == cache.LevelMem}
}

// Store implements cpu.MemorySystem.
func (m *Machine) Store(core int, in trace.Instr, now uint64) cpu.MemResult {
	d := m.pou.Route(in)
	if d.Path == pou.PathUC {
		m.ctr.ucStores.Inc()
		at := now
		if m.ucFree[core] > at {
			at = m.ucFree[core]
		}
		m.ucFree[core] = at + m.cfg.UCIssueGap
		done := m.mem.UCWrite(in.Addr, at)
		return cpu.MemResult{CompleteAt: done, OffChip: true}
	}
	m.ctr.stores[in.Region].Inc()
	r := m.cache.Access(core, in.Addr, true, now)
	return cpu.MemResult{CompleteAt: now + r.Latency, OffChip: r.Level == cache.LevelMem}
}

// routedAtomic is a POU decision kept for the record it was made for.
type routedAtomic struct {
	in    trace.Instr
	d     pou.Decision
	valid bool
}

// AtomicBlocking implements cpu.MemorySystem. The decision is kept for
// the Atomic call that issues the same record; a core stalled on a full
// atomic queue asks again when it retries, which replaces it.
func (m *Machine) AtomicBlocking(core int, in trace.Instr) bool {
	d := m.pou.Route(in)
	m.routed[core] = routedAtomic{in: in, d: d, valid: true}
	return d.Path == pou.PathHostAtomic
}

// route returns the POU decision for the atomic core issues: the one
// AtomicBlocking kept if it was made for this record, a fresh one
// otherwise. Either way nothing is left behind for a later atomic.
func (m *Machine) route(core int, in trace.Instr) pou.Decision {
	r := &m.routed[core]
	kept := r.valid && r.in == in
	r.valid = false
	if kept {
		return r.d
	}
	return m.pou.Route(in)
}

// probeLatency is the cache-walk cost of U-PEI's locality check.
func (m *Machine) probeLatency(lvl cache.Level) uint64 {
	c := m.cfg.Cache
	switch lvl {
	case cache.LevelL1:
		return c.L1Lat
	case cache.LevelL2:
		return c.L1Lat + c.L2Lat
	default:
		return c.L1Lat + c.L2Lat + c.L3Lat
	}
}

// Atomic implements cpu.MemorySystem.
func (m *Machine) Atomic(core int, in trace.Instr, now uint64) cpu.AtomicResult {
	d := m.route(core, in)
	if d.Candidate {
		m.ctr.candidates.Inc()
	}

	switch d.Path {
	case pou.PathHostAtomic:
		if d.Fallback {
			// Capability negotiation vetoed the offload; count it per op
			// so the degradation is visible. Lazily keyed — the counters
			// only exist in runs that actually fall back, keeping
			// snapshots of fully-capable runs unchanged.
			m.stats.Inc("pou.fallbacks." + d.Op.String())
		}
		// Read-for-ownership through the cache hierarchy, then the
		// locked RMW in the core.
		r := m.cache.Access(core, in.Addr, true, now)
		if d.Candidate {
			if r.Level == cache.LevelMem {
				m.ctr.candidatesMiss.Inc()
			} else {
				m.ctr.candidatesHit.Inc()
			}
		}
		m.ctr.hostAtomics.Inc()
		lat := r.Latency + m.cfg.HostAtomicRMW
		if in.Atomic == trace.AtomicFPAdd {
			lat += m.cfg.HostFPAtomicExtra
		}
		return cpu.AtomicResult{
			Blocking:      true,
			AcceptedAt:    now,
			CompleteAt:    now + lat,
			InCacheCycles: r.WalkLatency,
		}

	case pou.PathPIM:
		// Dispatch seam for the two capability tiers: fixed-function
		// commands go through Atomic, bundle-tier decisions through the
		// general-purpose vault cores. The POU only emits Bundle
		// decisions against a mem.BundleBackend, so the assertion holds
		// by construction.
		exec := func(at uint64) mem.AtomicTiming {
			if d.Bundle {
				return m.mem.(mem.BundleBackend).AtomicBundle(in.Addr, at)
			}
			return m.mem.Atomic(d.Op, in.Addr, hmcatomic.Value{}, at)
		}
		if m.pou.Config().HostOnCacheHit {
			// U-PEI: the ideal locality monitor checks the caches
			// first and executes host-side on a hit.
			lvl, hit := m.cache.Probe(core, in.Addr)
			if hit {
				if d.Candidate {
					m.ctr.candidatesHit.Inc()
				}
				m.ctr.upeiHostOps.Inc()
				r := m.cache.Access(core, in.Addr, true, now)
				return cpu.AtomicResult{
					AcceptedAt:   now + 2,
					CompleteAt:   now + r.Latency + m.cfg.UPEIHostOpLat,
					ChainPenalty: m.cfg.UPEICheckPenalty,
				}
			}
			if d.Candidate {
				m.ctr.candidatesMiss.Inc()
			}
			// Miss: pay the full cache walk before offloading; the
			// fill is skipped (PEI computes in memory, ideal
			// coherence keeps nothing to write back).
			walk := m.probeLatency(lvl)
			m.ctr.pimAtomics.Inc()
			t := exec(now + walk)
			return cpu.AtomicResult{
				AcceptedAt:    t.Accepted,
				CompleteAt:    t.ResponseAt,
				InCacheCycles: walk,
				OffChip:       true,
				ChainPenalty:  m.cfg.UPEICheckPenalty,
			}
		}
		// GraphPIM: offload immediately, no cache involvement at all.
		m.ctr.pimAtomics.Inc()
		t := exec(now)
		return cpu.AtomicResult{
			AcceptedAt: t.Accepted,
			CompleteAt: t.ResponseAt,
			OffChip:    true,
		}
	}

	// Unreachable for atomics, but keep a sane default.
	r := m.cache.Access(core, in.Addr, true, now)
	return cpu.AtomicResult{Blocking: true, AcceptedAt: now, CompleteAt: now + r.Latency}
}

// tickCore is the seam through which Run advances one core. Tests
// override it to exercise the defensive deadlock path.
var tickCore = func(c *cpu.Core, now, elapsed uint64) uint64 {
	return c.Tick(now, elapsed)
}

// Run replays the trace to completion (or maxCycles, whichever first) and
// returns the result. maxCycles <= 0 means no limit; Cycles never
// exceeds maxCycles.
//
// Run is the machine's only scheduler, a serial event loop: each core's
// Tick returns the next cycle its state can change, and a wake table
// (sim.Wakeups) yields, per event time, the set of cores due then. The
// loop ticks them in ascending id order, which replays events in (time,
// core-id) order — the same order the reference scan loop visits cores
// (runScan, the test-only oracle in scan_test.go), so the two are
// cycle-identical. Cores are ticked only at their own wake times; a
// final flush tick at the last event time settles the cycle-attribution
// counters for cores that went quiescent earlier (see DESIGN.md,
// "Event-driven scheduler").
func (m *Machine) Run(maxCycles uint64) Result {
	n := len(m.cores)
	wake := sim.NewWakeups(n)
	lastTick := make([]uint64, n)
	for i := 0; i < n; i++ {
		wake.Schedule(i, 0)
	}
	var now uint64
	done, parked := 0, 0

	for done < n {
		t, due := wake.PopDue()
		if due == 0 {
			// No wakeups pending. Either every live core is parked at a
			// barrier — release them all (one global barrier event) —
			// or no core can ever make progress again.
			m.releaseBarrier(wake, now, done, &parked)
			continue
		}
		if maxCycles > 0 && t > maxCycles {
			return m.truncate(maxCycles, lastTick)
		}
		now = t
		m.stepAt(now, due, wake, lastTick, &done, &parked)
		if m.checks != nil && m.checks.Due(now) {
			m.checkpoint(now, wake, done, parked, false)
		}
	}

	m.flushTicks(now, lastTick)
	if m.checks != nil {
		m.checkpoint(now, wake, done, parked, true)
	}
	return m.result(now)
}

// stepAt ticks every core in due (a bitmask of core ids, all due at
// cycle now) in ascending id order. A tick only ever schedules its own
// core, at a strictly later time, so the set due at now is fixed before
// the drain.
func (m *Machine) stepAt(now, due uint64, wake *sim.Wakeups, lastTick []uint64, done, parked *int) {
	for ; due != 0; due &= due - 1 {
		id := bits.TrailingZeros64(due)
		c := m.cores[id]
		next := tickCore(c, now, now-lastTick[id])
		lastTick[id] = now
		switch {
		case c.Done():
			*done++
		case c.WaitingBarrier():
			*parked++
		default:
			if next != ^uint64(0) {
				if next <= now {
					next = now + 1
				}
				wake.Schedule(id, next)
			}
			// A live, unparked core returning no wake time is left
			// unscheduled; the empty-table check reports the deadlock,
			// as the scan loop did.
		}
	}
}

// releaseBarrier handles an empty wake table: either every live core is
// parked at a barrier — release them all (one global barrier event) —
// or no core can ever make progress again.
func (m *Machine) releaseBarrier(wake *sim.Wakeups, now uint64, done int, parked *int) {
	if *parked == 0 || *parked+done != len(m.cores) {
		panic(fmt.Sprintf("machine: deadlock at cycle %d", now))
	}
	for i, c := range m.cores {
		if c.WaitingBarrier() {
			c.ReleaseBarrier(now)
			wake.Schedule(i, now+1)
		}
	}
	*parked = 0
	m.ctr.barriers.Inc()
}

// truncate ends a maxCycles-limited run: settle attribution at the
// cutoff itself, clamp the reported cycle count, and retire everything
// complete by the cutoff. Both are scheduler-independent: every core's
// next wake lies past the cutoff, so a tick at maxCycles sees the state
// any denser clock would, and Core.DrainCompleted counts the whole
// completed ROB prefix regardless of how often the core was ticked.
func (m *Machine) truncate(maxCycles uint64, lastTick []uint64) Result {
	now := maxCycles
	m.flushTicks(now, lastTick)
	for _, c := range m.cores {
		c.DrainCompleted(now)
	}
	if m.checks != nil {
		// End-of-run subsystem audits only: the loop's done/parked
		// counters are intentionally stale after the truncation drain.
		if f := m.checks.Final(now); f != nil {
			panic(f)
		}
	}
	return m.result(now)
}

// flushTicks advances every core that last ticked before now up to now,
// attributing the trailing quiescent stretch to its standing stall
// reason. The scan loop ticked all cores at every event, so its
// attribution always reached the final event time; the wake table skips
// those no-op ticks and settles the difference here in one step.
func (m *Machine) flushTicks(now uint64, lastTick []uint64) {
	for i, c := range m.cores {
		if lastTick[i] < now {
			tickCore(c, now, now-lastTick[i])
			lastTick[i] = now
		}
	}
}

func (m *Machine) result(now uint64) Result {
	var retired uint64
	for _, c := range m.cores {
		retired += c.Retired()
	}
	m.stats.Set("machine.cycles", now)
	return Result{
		Config:       m.cfg.Name,
		Cycles:       now,
		Instructions: retired,
		Stats:        m.stats.Snapshot(),
	}
}

// RunTrace assembles a machine for cfg and replays the materialized tr.
// It remains for bench/ and as a test oracle; the program replays
// through RunSource.
func RunTrace(cfg Config, space *memmap.AddressSpace, tr *trace.Trace) Result {
	return NewSource(cfg, space, tr).Run(0)
}

// RunSource assembles a machine for cfg and replays src: the harness's
// one replay call.
func RunSource(cfg Config, space *memmap.AddressSpace, src trace.Source) Result {
	return NewSource(cfg, space, src).Run(0)
}
