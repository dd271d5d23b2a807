package cache

import (
	"fmt"
	"math/bits"

	"graphpim/internal/mem"
	"graphpim/internal/memmap"
	"graphpim/internal/sim"
)

// Backend is the memory below the L3: the line-granular subset of the
// mem.Backend contract. ReadLine is on the critical path and returns its
// latency; WriteLine is a posted writeback whose latency is off the
// critical path but whose bandwidth and bank occupancy still count.
type Backend = mem.LineBackend

// Level identifies where an access was satisfied.
type Level uint8

// Hierarchy levels.
const (
	LevelL1 Level = 1 + iota
	LevelL2
	LevelL3
	LevelMem
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelL3:
		return "L3"
	case LevelMem:
		return "mem"
	}
	return fmt.Sprintf("level(%d)", uint8(l))
}

// Config is the cache geometry and latency configuration (Table IV
// defaults via DefaultConfig).
type Config struct {
	NumCores int
	LineSize int

	L1Size, L1Ways int
	L1Lat          uint64

	L2Size, L2Ways int
	L2Lat          uint64

	L3Size, L3Ways int
	L3Lat          uint64

	// Prefetch configures the L3 next-line prefetcher (disabled by
	// default, matching the paper's baseline).
	Prefetch PrefetchConfig
}

// DefaultConfig returns the Table IV cache configuration: 32KB 8-way L1,
// 256KB 8-way L2, 16MB 16-way L3, 64-byte lines.
func DefaultConfig(numCores int) Config {
	return Config{
		NumCores: numCores,
		LineSize: 64,
		L1Size:   32 << 10, L1Ways: 8, L1Lat: 4,
		L2Size: 256 << 10, L2Ways: 8, L2Lat: 12,
		L3Size: 16 << 20, L3Ways: 16, L3Lat: 36,
	}
}

// AccessResult reports the outcome of one cache access.
type AccessResult struct {
	// Latency is the total load-to-use latency in cycles, including any
	// memory fetch.
	Latency uint64
	// Level is where the request was satisfied.
	Level Level
	// WalkLatency is the on-chip portion: tag checks plus coherence
	// actions, excluding the off-chip fetch. Fig. 9's "Atomic-inCache"
	// attribution uses this.
	WalkLatency uint64
	// CoherenceExtra is the subset of WalkLatency spent on coherence
	// actions (upgrades, owner fetches, invalidations).
	CoherenceExtra uint64
}

// hierCounters holds pre-resolved stat handles for the per-access paths
// (see sim.Stats.Counter — no map lookups on the hot path).
type hierCounters struct {
	l1Access, l1Hit, l1Miss sim.Counter
	l2Access, l2Hit, l2Miss sim.Counter
	l3Access, l3Hit, l3Miss sim.Counter

	upgrades      sim.Counter
	c2c           sim.Counter
	invalidations sim.Counter
	l1BackInval   sim.Counter
	l3BackInval   sim.Counter

	memReads   sim.Counter
	writebacks sim.Counter

	pfIssued    sim.Counter
	pfRedundant sim.Counter
	pfUseful    sim.Counter
}

func resolveHierCounters(stats *sim.Stats) hierCounters {
	return hierCounters{
		l1Access: stats.Counter("cache.l1.access"),
		l1Hit:    stats.Counter("cache.l1.hit"),
		l1Miss:   stats.Counter("cache.l1.miss"),
		l2Access: stats.Counter("cache.l2.access"),
		l2Hit:    stats.Counter("cache.l2.hit"),
		l2Miss:   stats.Counter("cache.l2.miss"),
		l3Access: stats.Counter("cache.l3.access"),
		l3Hit:    stats.Counter("cache.l3.hit"),
		l3Miss:   stats.Counter("cache.l3.miss"),

		upgrades:      stats.Counter("cache.coherence.upgrades"),
		c2c:           stats.Counter("cache.coherence.c2c"),
		invalidations: stats.Counter("cache.coherence.invalidations"),
		l1BackInval:   stats.Counter("cache.inclusion.l1_backinval"),
		l3BackInval:   stats.Counter("cache.inclusion.l3_backinval"),

		memReads:   stats.Counter("cache.mem.reads"),
		writebacks: stats.Counter("cache.mem.writebacks"),

		pfIssued:    stats.Counter("cache.prefetch.issued"),
		pfRedundant: stats.Counter("cache.prefetch.redundant"),
		pfUseful:    stats.Counter("cache.prefetch.useful"),
	}
}

// Hierarchy is the full multi-core cache system.
type Hierarchy struct {
	cfg     Config
	backend Backend
	stats   *sim.Stats
	ctr     hierCounters

	l1, l2 []*array // per core
	l3     *array
}

// New builds a Hierarchy. stats may be shared with other components.
func New(cfg Config, backend Backend, stats *sim.Stats) *Hierarchy {
	if cfg.NumCores <= 0 {
		panic("cache: NumCores must be positive")
	}
	if cfg.NumCores > 32 {
		panic("cache: directory bitmask supports at most 32 cores")
	}
	h := &Hierarchy{cfg: cfg, backend: backend, stats: stats, ctr: resolveHierCounters(stats)}
	for c := 0; c < cfg.NumCores; c++ {
		h.l1 = append(h.l1, newArray(cfg.L1Size, cfg.L1Ways, cfg.LineSize, false))
		h.l2 = append(h.l2, newArray(cfg.L2Size, cfg.L2Ways, cfg.LineSize, false))
	}
	h.l3 = newArray(cfg.L3Size, cfg.L3Ways, cfg.LineSize, true)
	return h
}

func bit(core int) uint32 { return 1 << uint(core) }

// dropPrivate removes lineAddr from core's private caches and reports
// whether any dropped copy was dirty.
func (h *Hierarchy) dropPrivate(core int, lineAddr memmap.Addr) (dirty bool) {
	d1, _ := h.l1[core].invalidate(lineAddr)
	d2, _ := h.l2[core].invalidate(lineAddr)
	return d1 || d2
}

// invalidateSharers drops every private copy of L3 slot i other than
// keep's and updates its directory entry. Dirty remote data merges into
// the L3 copy.
func (h *Hierarchy) invalidateSharers(i, keep int) {
	d := &h.l3.dir[i]
	tag := h.l3.tag(i)
	for s := d.sharers &^ bit(keep); s != 0; s &= s - 1 {
		if h.dropPrivate(bits.TrailingZeros32(s), tag) {
			h.l3.meta[i].dirty = true
		}
		h.ctr.invalidations.Inc()
	}
	d.sharers &= bit(keep)
	if d.owner != int8(keep) {
		d.owner = -1
	}
}

// upgrade gives core exclusive ownership of the line in L3 slot i,
// invalidating every other private copy (a write to a Shared line).
func (h *Hierarchy) upgrade(i, core int) {
	h.invalidateSharers(i, core)
	h.l3.dir[i] = dirEntry{sharers: bit(core), owner: int8(core)}
}

// evictL1 handles an L1 victim: dirty data merges into the (inclusive) L2
// copy.
func (h *Hierarchy) evictL1(core int, ev line) {
	if !ev.valid || !ev.dirty {
		return
	}
	l2 := h.l2[core]
	if i := l2.lookup(ev.tag); i >= 0 {
		l2.meta[i].dirty = true
		l2.meta[i].st = stModified
	}
}

// evictL2 handles an L2 victim: the L1 copy is back-invalidated to keep
// inclusion, dirty data merges into the L3 copy, and the directory entry
// drops this core.
func (h *Hierarchy) evictL2(core int, ev line) {
	if !ev.valid {
		return
	}
	dirty := ev.dirty
	if d1, was := h.l1[core].invalidate(ev.tag); was {
		h.ctr.l1BackInval.Inc()
		dirty = dirty || d1
	}
	if i := h.l3.lookup(ev.tag); i >= 0 {
		if dirty {
			h.l3.meta[i].dirty = true
		}
		d := &h.l3.dir[i]
		d.sharers &^= bit(core)
		if d.owner == int8(core) {
			d.owner = -1
		}
	}
}

// evictL3 handles an L3 victim: every private copy is back-invalidated and
// dirty data is written back to memory.
func (h *Hierarchy) evictL3(ev line, now uint64) {
	if !ev.valid {
		return
	}
	dirty := ev.dirty
	for s := ev.sharers; s != 0; s &= s - 1 {
		if h.dropPrivate(bits.TrailingZeros32(s), ev.tag) {
			dirty = true
		}
		h.ctr.l3BackInval.Inc()
	}
	if dirty {
		h.ctr.writebacks.Inc()
		h.backend.WriteLine(ev.tag, now)
	}
}

// fillPrivate installs lineAddr into core's L2 and L1 with the given
// state, into the sets the access walk already resolved.
func (h *Hierarchy) fillPrivate(core, s1, s2 int, lineAddr memmap.Addr, st state) {
	_, ev2 := h.l2[core].installIn(s2, lineAddr, st, false)
	h.evictL2(core, ev2)
	_, ev1 := h.l1[core].installIn(s1, lineAddr, st, st == stModified)
	h.evictL1(core, ev1)
}

// Access performs a read (write=false) or write/RFO (write=true) by core
// at addr. now is the absolute cycle at which the access starts, used for
// backend timing.
//
// The directory steers the walk. The L3 is probed first: by inclusion,
// core's L2 holds the line exactly when the L3 holds it with core's
// sharer bit set, and its L1 holds it only then (CheckInvariants audits
// both directions). So the L1 and L2 are scanned only when that bit is
// set; otherwise their sets come from the address alone. Latencies and
// counters still follow the L1 -> L2 -> L3 order of the level that
// answers. Each array's set index is resolved once and reused for
// touch, victim choice and install on the way back up, and the L3 slot
// for every directory update.
func (h *Hierarchy) Access(core int, addr memmap.Addr, write bool, now uint64) AccessResult {
	lineAddr := memmap.LineAddr(addr)
	l1, l2, l3 := h.l1[core], h.l2[core], h.l3
	res := AccessResult{}
	res.Latency = h.cfg.L1Lat
	h.ctr.l1Access.Inc()

	s3, i3 := l3.probe(lineAddr)
	s1, i1 := l1.setOf(lineAddr), -1
	s2, i2 := l2.setOf(lineAddr), -1
	if i3 >= 0 && l3.dir[i3].sharers&bit(core) != 0 {
		if s1, i1 = l1.probe(lineAddr); i1 < 0 {
			s2, i2 = l2.probe(lineAddr)
		}
	}

	// L1.
	if i1 >= 0 {
		l1.touch(s1, i1)
		h.ctr.l1Hit.Inc()
		res.Level = LevelL1
		if !write {
			res.WalkLatency = res.Latency
			return res
		}
		m1 := &l1.meta[i1]
		if m1.st == stModified || m1.st == stExclusive {
			l3.dir[i3].owner = int8(core)
		} else {
			// Write hit on a Shared line: directory upgrade.
			up := h.cfg.L2Lat + h.cfg.L3Lat
			res.Latency += up
			res.CoherenceExtra += up
			h.ctr.upgrades.Inc()
			h.upgrade(i3, core)
		}
		m1.st = stModified
		m1.dirty = true
		if i := l2.lookup(lineAddr); i >= 0 {
			l2.meta[i].st = stModified
		}
		res.WalkLatency = res.Latency
		return res
	}
	h.ctr.l1Miss.Inc()

	// L2.
	res.Latency += h.cfg.L2Lat
	h.ctr.l2Access.Inc()
	if i2 >= 0 {
		l2.touch(s2, i2)
		h.ctr.l2Hit.Inc()
		m2 := &l2.meta[i2]
		st := m2.st
		if write {
			if st == stShared {
				up := h.cfg.L3Lat
				res.Latency += up
				res.CoherenceExtra += up
				h.ctr.upgrades.Inc()
				h.upgrade(i3, core)
			} else {
				l3.dir[i3].owner = int8(core)
			}
			st = stModified
			m2.st = stModified
			m2.dirty = true
		}
		_, ev1 := l1.installIn(s1, lineAddr, st, st == stModified && write)
		h.evictL1(core, ev1)
		res.Level = LevelL2
		res.WalkLatency = res.Latency
		return res
	}
	h.ctr.l2Miss.Inc()

	// L3.
	res.Latency += h.cfg.L3Lat
	h.ctr.l3Access.Inc()
	if i3 >= 0 {
		l3.touch(s3, i3)
		h.ctr.l3Hit.Inc()
		m3, d3 := &l3.meta[i3], &l3.dir[i3]
		if m3.prefetched {
			m3.prefetched = false
			h.ctr.pfUseful.Inc()
		}
		// Remote owner: cache-to-cache transfer.
		if d3.owner >= 0 && int(d3.owner) != core {
			res.Latency += h.cfg.L3Lat
			res.CoherenceExtra += h.cfg.L3Lat
			h.ctr.c2c.Inc()
			oc := int(d3.owner)
			if write {
				if h.dropPrivate(oc, lineAddr) {
					m3.dirty = true
				}
				d3.sharers &^= bit(oc)
				h.ctr.invalidations.Inc()
			} else {
				// Downgrade owner to Shared; dirty data merges to L3.
				for _, a := range [2]*array{h.l1[oc], h.l2[oc]} {
					if i := a.lookup(lineAddr); i >= 0 {
						om := &a.meta[i]
						if om.dirty {
							m3.dirty = true
							om.dirty = false
						}
						om.st = stShared
					}
				}
			}
			d3.owner = -1
		}
		var st state
		if write {
			h.invalidateSharers(i3, core)
			*d3 = dirEntry{sharers: bit(core), owner: int8(core)}
			st = stModified
		} else {
			if d3.sharers&^bit(core) != 0 {
				st = stShared
				d3.owner = -1
			} else {
				st = stExclusive
				d3.owner = int8(core)
			}
			d3.sharers |= bit(core)
		}
		h.fillPrivate(core, s1, s2, lineAddr, st)
		res.Level = LevelL3
		res.WalkLatency = res.Latency
		return res
	}
	h.ctr.l3Miss.Inc()

	// Memory fetch.
	res.WalkLatency = res.Latency
	h.ctr.memReads.Inc()
	memLat := h.backend.ReadLine(lineAddr, now+res.Latency)
	res.Latency += memLat
	if h.cfg.Prefetch.Depth > 0 {
		// The prefetcher fires when the miss is detected (end of the tag
		// walk), concurrently with the demand fetch — not serialized
		// behind it. Issuing at now+res.Latency here would idle the
		// prefetcher for a full memory round-trip per trigger.
		h.prefetch(lineAddr, now+res.WalkLatency)
	}

	i3, ev := l3.installIn(s3, lineAddr, stInvalid, false)
	h.evictL3(ev, now+res.Latency)
	l3.dir[i3] = dirEntry{sharers: bit(core), owner: int8(core)}
	st := stExclusive
	if write {
		st = stModified
	}
	h.fillPrivate(core, s1, s2, lineAddr, st)
	res.Level = LevelMem
	return res
}

// Probe reports whether lineAddr is present anywhere visible to core (its
// own L1/L2 or the shared, inclusive L3) without changing any state. The
// U-PEI configuration uses this as its ideal locality monitor. Like
// Access, it asks the directory before scanning a private cache.
func (h *Hierarchy) Probe(core int, addr memmap.Addr) (Level, bool) {
	lineAddr := memmap.LineAddr(addr)
	i3 := h.l3.lookup(lineAddr)
	switch {
	case i3 < 0:
		return LevelMem, false
	case h.l3.dir[i3].sharers&bit(core) == 0:
		return LevelL3, true
	case h.l1[core].lookup(lineAddr) >= 0:
		return LevelL1, true
	}
	return LevelL2, true
}

// checkPrivateSlot validates slot i of a private (L1 or L2) array: the
// layout invariants of checkSlot, then for a valid line a real MESI
// state and a dirty bit that implies Modified (in particular no dirty
// Shared line can exist — a Shared line lost write permission, so dirty
// data in it would be lost silently on eviction). Private arrays hold
// no directory fields at all, so they cannot carry directory state.
func checkPrivateSlot(level string, core int, a *array, i int) error {
	if err := a.checkSlot(i); err != nil {
		return fmt.Errorf("%s core %d: %w", level, core, err)
	}
	if !a.valid(i) {
		return nil
	}
	m := a.meta[i]
	if m.st == stInvalid {
		return fmt.Errorf("%s line %#x of core %d is valid but in state I", level, a.tag(i), core)
	}
	if m.dirty && m.st != stModified {
		return fmt.Errorf("%s line %#x of core %d is dirty in state %v (dirty implies M)",
			level, a.tag(i), core, m.st)
	}
	return nil
}

// CheckInvariants validates MESI/inclusion/directory invariants across
// the whole hierarchy. The internal/check sanitizer registers it as the
// "cache" auditor; tests also call it directly after randomized access
// sequences. It is read-only.
func (h *Hierarchy) CheckInvariants() error {
	// Check every private slot's state, inclusion, and the directory
	// view.
	for c := 0; c < h.cfg.NumCores; c++ {
		l1, l2 := h.l1[c], h.l2[c]
		for i := range l1.keys {
			if err := checkPrivateSlot("L1", c, l1, i); err != nil {
				return err
			}
			if !l1.valid(i) {
				continue
			}
			tag := l1.tag(i)
			j := l2.lookup(tag)
			if j < 0 {
				return fmt.Errorf("L1 line %#x of core %d not in L2 (inclusion)", tag, c)
			}
			if l1.meta[i].st == stModified && l2.meta[j].st != stModified {
				return fmt.Errorf("L1 line %#x of core %d is M but L2 copy is %v", tag, c, l2.meta[j].st)
			}
		}
		for i := range l2.keys {
			if err := checkPrivateSlot("L2", c, l2, i); err != nil {
				return err
			}
			if !l2.valid(i) {
				continue
			}
			tag := l2.tag(i)
			j := h.l3.lookup(tag)
			if j < 0 {
				return fmt.Errorf("L2 line %#x of core %d not in L3 (inclusion)", tag, c)
			}
			sharers := h.l3.dir[j].sharers
			if sharers&bit(c) == 0 {
				return fmt.Errorf("L2 line %#x of core %d missing from directory", tag, c)
			}
			if st := l2.meta[i].st; (st == stModified || st == stExclusive) && sharers&^bit(c) != 0 {
				return fmt.Errorf("line %#x is %v in core %d but has other sharers %#x",
					tag, st, c, sharers&^bit(c))
			}
		}
	}
	// Directory entries must be backed by actual private copies, and
	// invalid L3 slots must carry no directory state at all.
	for i := range h.l3.keys {
		if err := h.l3.checkSlot(i); err != nil {
			return fmt.Errorf("L3: %w", err)
		}
		if !h.l3.valid(i) {
			continue
		}
		tag, d := h.l3.tag(i), h.l3.dir[i]
		if d.sharers>>uint(h.cfg.NumCores) != 0 {
			return fmt.Errorf("directory entry %#x names nonexistent cores (sharers=%#x, %d cores)",
				tag, d.sharers, h.cfg.NumCores)
		}
		for c := 0; c < h.cfg.NumCores; c++ {
			if d.sharers&bit(c) != 0 && h.l2[c].lookup(tag) < 0 {
				return fmt.Errorf("directory says core %d shares %#x but L2 has no copy", c, tag)
			}
		}
		if d.owner >= 0 && d.sharers&bit(int(d.owner)) == 0 {
			return fmt.Errorf("owner %d of %#x is not a sharer", d.owner, tag)
		}
	}
	return nil
}

// CorruptDirectoryForTest deliberately flips one directory sharer bit on
// a valid L3 line so fault-injection tests can prove CheckInvariants
// catches directory drift. It reports whether a target line existed.
// Test-only; never call from simulation code.
func (h *Hierarchy) CorruptDirectoryForTest() bool {
	for i := range h.l3.keys {
		if !h.l3.valid(i) {
			continue
		}
		d := &h.l3.dir[i]
		for c := 0; c < h.cfg.NumCores; c++ {
			if d.sharers&bit(c) == 0 {
				d.sharers |= bit(c) // phantom sharer with no private copy
				return true
			}
		}
		d.sharers &^= bit(0) // every core shares: drop one instead
		return true
	}
	return false
}
