// Package cache models the host cache hierarchy of Table IV: 32KB private
// L1 data caches, 256KB private inclusive L2 caches, and a 16MB shared
// inclusive L3, with 64-byte lines kept coherent by a MESI protocol backed
// by an in-L3 sharer directory.
//
// The hierarchy is a "latency oracle": an access updates tag/LRU/coherence
// state immediately and returns the latency the requesting core observes.
// Off-chip traffic (fills and writebacks) is reported to a Backend, which
// the machine model wires to the HMC so that bank occupancy and link FLIT
// accounting stay accurate.
package cache

import (
	"fmt"

	"graphpim/internal/memmap"
)

// MESI line states for private caches.
type state uint8

const (
	stInvalid state = iota
	stShared
	stExclusive
	stModified
)

func (s state) String() string {
	switch s {
	case stInvalid:
		return "I"
	case stShared:
		return "S"
	case stExclusive:
		return "E"
	case stModified:
		return "M"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// slot is one way's coherence state. The tag and LRU stamp live in
// their own arrays (see array) so that a probe or a victim scan reads
// nothing else.
type slot struct {
	st    state
	dirty bool
	// prefetched marks L3 lines brought in by the prefetcher and not
	// yet touched by a demand access (accuracy accounting).
	prefetched bool
}

// dirEntry is the in-L3 directory entry of one slot.
type dirEntry struct {
	sharers uint32 // bitmask of cores with the line in a private cache
	owner   int8   // core holding the line in M/E state, -1 if none
}

// emptyDir is the directory entry of a line no private cache holds.
var emptyDir = dirEntry{owner: -1}

// line is a copy of one slot's metadata: what an install hands back for
// the line it evicted. The simulator stores no data bytes; functional
// values live in the workload layer.
type line struct {
	tag   memmap.Addr
	valid bool
	slot
	dirEntry
}

// array is one set-associative cache structure, stored as parallel
// per-slot arrays indexed by set*ways + way:
//
//   - keys holds tag|1 for a valid slot and 0 for an empty one (tags are
//     line-aligned, so bit 0 is free). A probe scans only the set's keys:
//     128 B for a 16-way set, 64 B for an 8-way one.
//   - lru holds the last-use stamps, and is 0 exactly when the slot is
//     empty (useCtr starts at 0 and every stamp is a fresh increment), so
//     the first minimum stamp of a set is its first empty slot if it has
//     one, and its least recently used line otherwise.
//   - meta holds the coherence state; dir the sharer directory, which
//     only the L3 has (nil in private arrays).
//
// That is 8+8+3 bytes per slot in a private array and 27 in the L3.
type array struct {
	keys    []uint64
	lru     []uint64
	meta    []slot
	dir     []dirEntry
	ways    int
	setMask uint64
	useCtr  uint64
}

func newArray(sizeBytes, ways, lineSize int, directory bool) *array {
	if sizeBytes <= 0 || ways <= 0 || lineSize <= 0 {
		panic("cache: non-positive geometry")
	}
	numLines := sizeBytes / lineSize
	numSets := numLines / ways
	if numSets == 0 {
		numSets = 1
	}
	if numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two", numSets))
	}
	n := numSets * ways
	a := &array{
		keys:    make([]uint64, n),
		lru:     make([]uint64, n),
		meta:    make([]slot, n),
		ways:    ways,
		setMask: uint64(numSets - 1),
	}
	if directory {
		a.dir = make([]dirEntry, n)
		for i := range a.dir {
			a.dir[i] = emptyDir
		}
	}
	return a
}

// probe resolves lineAddr's set once and returns the index of its first
// slot together with the slot holding lineAddr (-1 on a miss).
// Hierarchy.Access reuses base for victim choice and install, so one
// access walks each array's set index a single time; evictions and
// back-invalidations in between are seen, as they change the slots
// themselves.
func (a *array) probe(lineAddr memmap.Addr) (base, i int) {
	base = int((uint64(lineAddr)>>6)&a.setMask) * a.ways
	key := uint64(lineAddr) | 1
	for w, k := range a.keys[base : base+a.ways] {
		if k == key {
			return base, base + w
		}
	}
	return base, -1
}

// lookup returns the slot holding lineAddr, or -1.
func (a *array) lookup(lineAddr memmap.Addr) int {
	_, i := a.probe(lineAddr)
	return i
}

// valid reports whether slot i holds a line.
func (a *array) valid(i int) bool { return a.keys[i] != 0 }

// tag returns the line address slot i holds (0 for an empty slot).
func (a *array) tag(i int) memmap.Addr { return memmap.Addr(a.keys[i] &^ 1) }

// touch refreshes the LRU stamp of slot i.
func (a *array) touch(i int) {
	a.useCtr++
	a.lru[i] = a.useCtr
}

// victim returns the slot to replace in the set starting at base: the
// first empty slot if one exists, otherwise the least recently used
// line — both the set's first minimum stamp.
func (a *array) victim(base int) int {
	stamps := a.lru[base : base+a.ways]
	v := 0
	for w, s := range stamps {
		if s < stamps[v] {
			v = w
		}
	}
	return base + v
}

// installIn replaces the victim slot of the set starting at base with a
// fresh line for lineAddr, returning the installed slot and the evicted
// metadata (valid=false when the slot was empty).
func (a *array) installIn(base int, lineAddr memmap.Addr, st state, dirty bool) (i int, evicted line) {
	i = a.victim(base)
	evicted = line{tag: a.tag(i), valid: a.valid(i), slot: a.meta[i], dirEntry: emptyDir}
	a.useCtr++
	a.keys[i] = uint64(lineAddr) | 1
	a.lru[i] = a.useCtr
	a.meta[i] = slot{st: st, dirty: dirty}
	if a.dir != nil {
		evicted.dirEntry = a.dir[i]
		a.dir[i] = emptyDir
	}
	return i, evicted
}

// invalidate drops lineAddr from the array, reporting whether it was
// present and whether the dropped copy was dirty.
func (a *array) invalidate(lineAddr memmap.Addr) (dirty, was bool) {
	i := a.lookup(lineAddr)
	if i < 0 {
		return false, false
	}
	dirty = a.meta[i].dirty
	a.keys[i], a.lru[i], a.meta[i] = 0, 0, slot{}
	if a.dir != nil {
		a.dir[i] = emptyDir
	}
	return dirty, true
}

// checkSlot validates the layout invariants of slot i: an empty slot
// carries no stamp and no state (a stale stamp would skew victim choice,
// stale state would resurrect on the next install), and a valid slot has
// a nonzero stamp. Callers prefix the error with the array's name.
func (a *array) checkSlot(i int) error {
	d := emptyDir
	if a.dir != nil {
		d = a.dir[i]
	}
	if !a.valid(i) {
		if a.lru[i] != 0 || a.meta[i] != (slot{}) || d != emptyDir {
			return fmt.Errorf("invalid slot %d retains state (lru=%d dirty=%v sharers=%#x owner=%d)",
				i, a.lru[i], a.meta[i].dirty, d.sharers, d.owner)
		}
		return nil
	}
	if a.lru[i] == 0 {
		return fmt.Errorf("line %#x is valid with LRU stamp 0", a.tag(i))
	}
	return nil
}
