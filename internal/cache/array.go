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
	"math/bits"

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

// slot is one way's coherence state. The tag lives in its own array and
// the replacement state in per-set words (see array), so that a probe or
// a victim choice reads nothing else.
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

// MaxWays is the associativity limit: 16 four-bit way ids fill an order word.
const MaxWays = 16

// array is one set-associative cache structure. Per-slot metadata lives
// in parallel slices indexed by set*ways + way:
//
//   - keys holds tag|1 for a valid slot and 0 for an empty one (tags are
//     line-aligned, so bit 0 is free). A probe scans only the set's keys:
//     128 B for a 16-way set, 64 B for an 8-way one.
//   - meta holds the coherence state; dir the sharer directory, which
//     only the L3 has (nil in private arrays).
//
// Exact LRU state is two words per set: order lists the way ids as 4-bit
// nibbles, MRU first (unused nibbles 0), and occ has bit w set when way w
// holds a line. The victim is the lowest empty way, else the tail nibble.
// That is 8+3 B per slot in a private array, 19 in the L3, plus 10 per set.
type array struct {
	keys    []uint64
	meta    []slot
	dir     []dirEntry
	order   []uint64
	occ     []uint16
	ways    int
	setMask uint64
}

func newArray(sizeBytes, ways, lineSize int, directory bool) *array {
	if sizeBytes <= 0 || ways <= 0 || ways > MaxWays || lineSize <= 0 || sizeBytes%(ways*lineSize) != 0 {
		panic(fmt.Sprintf("cache: bad geometry %d B, %d ways, %d B lines (want 1..%d ways, size a multiple of ways*line)",
			sizeBytes, ways, lineSize, MaxWays))
	}
	numSets := sizeBytes / (ways * lineSize)
	if numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two", numSets))
	}
	n := numSets * ways
	a := &array{
		keys:    make([]uint64, n),
		meta:    make([]slot, n),
		order:   make([]uint64, numSets),
		occ:     make([]uint16, numSets),
		ways:    ways,
		setMask: uint64(numSets - 1),
	}
	for s := range a.order {
		a.order[s] = 0xFEDCBA9876543210 & (uint64(1)<<(4*uint(ways)) - 1) // way w in nibble w
	}
	if directory {
		a.dir = make([]dirEntry, n)
		for i := range a.dir {
			a.dir[i] = emptyDir
		}
	}
	return a
}

// probe resolves lineAddr's set once and returns it together with the
// slot holding lineAddr (-1 on a miss). Hierarchy.Access reuses the set
// for touch, victim choice and install, so one access computes each
// array's set index a single time; evictions and back-invalidations in
// between are seen, as they change the slots and set words themselves.
func (a *array) probe(lineAddr memmap.Addr) (set, i int) {
	set = a.setOf(lineAddr)
	base := set * a.ways
	key := uint64(lineAddr) | 1
	for w, k := range a.keys[base : base+a.ways] {
		if k == key {
			return set, base + w
		}
	}
	return set, -1
}

// setOf returns the set lineAddr maps to, without scanning it.
func (a *array) setOf(lineAddr memmap.Addr) int {
	return int((uint64(lineAddr) >> 6) & a.setMask)
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

// touch moves slot i's way w to the front of set's order word. A SWAR
// zero-nibble test on the word XOR w-in-every-nibble finds w's nibble p: a
// borrow flags only nibbles above a true zero, and unused nibbles lie above.
func (a *array) touch(set, i int) {
	const ones = 0x1111111111111111
	o, w := a.order[set], uint64(i-set*a.ways)
	x := o ^ w*ones
	p := uint(bits.TrailingZeros64((x-ones)&^x&(ones<<3))) &^ 3
	// Keep the nibbles behind p (a shift by 64 yields 0), move those in front back one.
	a.order[set] = o&^(uint64(1)<<(p+4)-1) | (o&(uint64(1)<<p-1))<<4 | w
}

// victim returns the way to replace in set: the lowest empty way if one
// exists, otherwise the least recently used line.
func (a *array) victim(set int) int {
	if w := bits.TrailingZeros16(^a.occ[set]); w < a.ways {
		return w
	}
	return int(a.order[set] >> (4 * uint(a.ways-1)) & 0xF)
}

// installIn replaces the victim slot of set with a fresh line for
// lineAddr, returning the installed slot and the evicted metadata
// (valid=false when the slot was empty).
func (a *array) installIn(set int, lineAddr memmap.Addr, st state, dirty bool) (i int, evicted line) {
	w := a.victim(set)
	i = set*a.ways + w
	evicted = line{tag: a.tag(i), valid: a.valid(i), slot: a.meta[i], dirEntry: emptyDir}
	a.keys[i] = uint64(lineAddr) | 1
	a.meta[i] = slot{st: st, dirty: dirty}
	a.occ[set] |= 1 << w
	a.touch(set, i)
	if a.dir != nil {
		evicted.dirEntry = a.dir[i]
		a.dir[i] = emptyDir
	}
	return i, evicted
}

// invalidate drops lineAddr from the array, reporting whether it was
// present and whether the dropped copy was dirty.
func (a *array) invalidate(lineAddr memmap.Addr) (dirty, was bool) {
	set, i := a.probe(lineAddr)
	if i < 0 {
		return false, false
	}
	dirty = a.meta[i].dirty
	a.keys[i], a.meta[i] = 0, slot{}
	a.occ[set] &^= 1 << (i - set*a.ways)
	if a.dir != nil {
		a.dir[i] = emptyDir
	}
	return dirty, true
}

// checkSlot validates the layout invariants of slot i: its occupancy bit
// agrees with its key (a stale bit would skew victim choice), and an
// empty slot carries no state (it would resurrect on the next install).
// A set's first slot also checks the set's order word, so a sweep over
// every slot audits every set once. Callers prefix the array's name.
func (a *array) checkSlot(i int) error {
	set, w := i/a.ways, i%a.ways
	if w == 0 {
		if err := a.checkOrder(set); err != nil {
			return err
		}
	}
	if occupied := a.occ[set]>>w&1 != 0; occupied != a.valid(i) {
		return fmt.Errorf("slot %d (set %d way %d) has occupancy bit %v but valid=%v",
			i, set, w, occupied, a.valid(i))
	}
	d := emptyDir
	if a.dir != nil {
		d = a.dir[i]
	}
	if !a.valid(i) && (a.meta[i] != (slot{}) || d != emptyDir) {
		return fmt.Errorf("invalid slot %d retains state (dirty=%v sharers=%#x owner=%d)",
			i, a.meta[i].dirty, d.sharers, d.owner)
	}
	return nil
}

// checkOrder validates set's order word: its low ways nibbles are a
// permutation of 0..ways-1 and the rest are zero. A duplicated way id
// would leave some other way unreachable as the LRU victim.
func (a *array) checkOrder(set int) error {
	o := a.order[set]
	var seen uint16
	for p := 0; p < a.ways; p++ {
		w := o >> (4 * uint(p)) & 0xF
		if int(w) >= a.ways || seen>>w&1 != 0 {
			return fmt.Errorf("set %d order word %#x is not a permutation of ways 0..%d", set, o, a.ways-1)
		}
		seen |= 1 << w
	}
	if o>>(4*uint(a.ways)) != 0 { // a shift by 64 yields 0
		return fmt.Errorf("set %d order word %#x has nonzero nibbles above way %d", set, o, a.ways-1)
	}
	return nil
}
