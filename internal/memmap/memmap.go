// Package memmap models the simulated process address space and the PIM
// memory region (PMR) described in Section III of the GraphPIM paper.
//
// The graph framework allocates three classes of data:
//
//   - meta data (task queues, locals) — small, cache friendly;
//   - graph structure (CSR arrays) — sequential, cache friendly;
//   - graph property — the PIM offloading target, placed into the PMR by
//     PMRMalloc (the paper's pmr_malloc) and marked uncacheable.
//
// Addresses are purely simulated: nothing is ever dereferenced. The address
// space hands out disjoint ranges so that the cache and HMC models can map
// an address to a line, vault, and bank.
package memmap

import (
	"fmt"
	"sort"
)

// Addr is a simulated virtual (== physical, the simulator does not model
// paging) byte address.
type Addr uint64

// Region identifies which logical data component an address belongs to.
// Workload traces tag every memory reference with its region so the
// harness can break down behaviour per component (Fig. 3 discussion).
type Region uint8

const (
	// RegionMeta holds task queues and per-thread locals.
	RegionMeta Region = iota
	// RegionStruct holds the CSR graph structure arrays.
	RegionStruct
	// RegionProperty holds vertex/edge property arrays. When allocated
	// through PMRMalloc these live in the PMR.
	RegionProperty
)

// String implements fmt.Stringer.
func (r Region) String() string {
	switch r {
	case RegionMeta:
		return "meta"
	case RegionStruct:
		return "struct"
	case RegionProperty:
		return "property"
	}
	return fmt.Sprintf("region(%d)", uint8(r))
}

// Layout of the simulated address space. Each segment is large enough that
// allocations never collide across segments for any experiment in the
// repository.
const (
	metaBase   Addr = 0x0000_1000_0000
	structBase Addr = 0x0010_0000_0000
	propBase   Addr = 0x0020_0000_0000
	pmrBase    Addr = 0x0040_0000_0000
	segSize    Addr = 0x0010_0000_0000 // 64 GiB per segment
)

// AddressSpace is a bump allocator over the simulated segments plus the
// record of which ranges are uncacheable (the PMR). It is not safe for
// concurrent use while being built; trace generation is single-goroutine
// by design. Once Freeze is called the space becomes immutable and its
// read-only queries (InPMR, RegionOf, UCRanges, Footprint) are safe to
// call from any number of goroutines replaying the trace concurrently.
type AddressSpace struct {
	metaNext   Addr
	structNext Addr
	propNext   Addr
	pmrNext    Addr

	// uncacheable ranges, kept sorted by base; in practice a single PMR
	// range per machine, but the structure supports several (the paper's
	// mixed HMC+DRAM discussion).
	ucRanges []addrRange

	frozen bool
}

type addrRange struct {
	base Addr
	size Addr
}

// NewAddressSpace returns an empty address space.
func NewAddressSpace() *AddressSpace {
	return &AddressSpace{
		metaNext:   metaBase,
		structNext: structBase,
		propNext:   propBase,
		pmrNext:    pmrBase,
	}
}

const allocAlign = 64 // allocations are cache-line aligned

func align(a Addr) Addr {
	return (a + allocAlign - 1) &^ (allocAlign - 1)
}

// AllocMeta reserves size bytes in the meta-data segment.
func (s *AddressSpace) AllocMeta(size uint64) Addr {
	return s.bump(&s.metaNext, metaBase, size)
}

// AllocStruct reserves size bytes in the graph-structure segment.
func (s *AddressSpace) AllocStruct(size uint64) Addr {
	return s.bump(&s.structNext, structBase, size)
}

// AllocProperty reserves size bytes in the cacheable property segment.
// Baseline machines keep graph properties here.
func (s *AddressSpace) AllocProperty(size uint64) Addr {
	return s.bump(&s.propNext, propBase, size)
}

// PMRMalloc reserves size bytes inside the PIM memory region and marks the
// range uncacheable. This is the simulated counterpart of the paper's
// pmr_malloc framework hook.
func (s *AddressSpace) PMRMalloc(size uint64) Addr {
	base := s.bump(&s.pmrNext, pmrBase, size)
	s.markUncacheable(base, Addr(size))
	return base
}

// Freeze makes the address space immutable. Any later allocation or
// uncacheable-range mutation panics, so concurrent replay over a shared
// space can never silently race with a stray allocation. Freezing twice
// is a no-op.
func (s *AddressSpace) Freeze() { s.frozen = true }

func (s *AddressSpace) bump(next *Addr, segBase Addr, size uint64) Addr {
	if s.frozen {
		panic("memmap: allocation from frozen AddressSpace")
	}
	if size == 0 {
		size = 1
	}
	base := align(*next)
	end := base + Addr(size)
	if end > segBase+segSize {
		panic(fmt.Sprintf("memmap: segment at %#x exhausted (requested %d bytes)", segBase, size))
	}
	*next = end
	return base
}

func (s *AddressSpace) markUncacheable(base, size Addr) {
	if s.frozen {
		panic("memmap: uncacheable-range mutation on frozen AddressSpace")
	}
	s.ucRanges = append(s.ucRanges, addrRange{base: base, size: size})
	sort.Slice(s.ucRanges, func(i, j int) bool { return s.ucRanges[i].base < s.ucRanges[j].base })
}

// InPMR reports whether addr falls inside an uncacheable (PMR) range. The
// PIM offloading unit consults this on every memory reference.
func (s *AddressSpace) InPMR(addr Addr) bool {
	// Binary search over sorted, non-overlapping ranges.
	lo, hi := 0, len(s.ucRanges)
	for lo < hi {
		mid := (lo + hi) / 2
		r := s.ucRanges[mid]
		switch {
		case addr < r.base:
			hi = mid
		case addr >= r.base+r.size:
			lo = mid + 1
		default:
			return true
		}
	}
	return false
}

// UCRanges returns the uncacheable (PMR) ranges as {base, size} pairs,
// for trace serialization.
func (s *AddressSpace) UCRanges() [][2]Addr {
	out := make([][2]Addr, 0, len(s.ucRanges))
	for _, r := range s.ucRanges {
		out = append(out, [2]Addr{r.base, r.size})
	}
	return out
}

// RestoreUncacheable re-marks a range as uncacheable when rebuilding an
// address space from a serialized trace.
func (s *AddressSpace) RestoreUncacheable(base, size Addr) {
	s.markUncacheable(base, size)
}

// RegionOf classifies an address by segment. Addresses in the PMR segment
// are property data by construction.
func (s *AddressSpace) RegionOf(addr Addr) Region {
	switch {
	case addr >= pmrBase:
		return RegionProperty
	case addr >= propBase:
		return RegionProperty
	case addr >= structBase:
		return RegionStruct
	default:
		return RegionMeta
	}
}

// Footprint returns the total bytes allocated in each segment, used to
// report dataset memory footprints (Table VI).
func (s *AddressSpace) Footprint() (meta, structure, property uint64) {
	meta = uint64(s.metaNext - metaBase)
	structure = uint64(s.structNext - structBase)
	property = uint64(s.propNext-propBase) + uint64(s.pmrNext-pmrBase)
	return
}

// LineAddr returns the 64-byte cache-line address containing addr.
func LineAddr(addr Addr) Addr { return addr &^ 63 }
