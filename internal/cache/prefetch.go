package cache

import "graphpim/internal/memmap"

// Hardware prefetching support. Section II-C of the paper argues that
// "due to the uncertain nature of graph connectivity, it is challenging
// to improve cache performance via conventional prefetching or data
// remapping techniques"; the ext-prefetch experiment reproduces that
// claim by enabling this next-line prefetcher and observing that it does
// not rescue the baseline on property-bound workloads.

// PrefetchConfig configures the L3 next-line prefetcher.
type PrefetchConfig struct {
	// Depth is the number of sequential lines fetched after a demand
	// miss (0 disables prefetching).
	Depth int
}

// prefetch issues next-line fills into the L3 after a demand miss at
// lineAddr. Prefetches are off the critical path but consume memory
// bandwidth and bank time, and can pollute the L3 — all modeled.
func (h *Hierarchy) prefetch(lineAddr memmap.Addr, now uint64) {
	for i := 1; i <= h.cfg.Prefetch.Depth; i++ {
		next := lineAddr + memmap.Addr(i*h.cfg.LineSize)
		set, hit := h.l3.probe(next)
		if hit >= 0 {
			h.ctr.pfRedundant.Inc()
			continue
		}
		h.ctr.pfIssued.Inc()
		h.ctr.memReads.Inc()
		// The fill occupies the memory system but nothing waits on it.
		h.backend.ReadLine(next, now)
		v, ev := h.l3.installIn(set, next, stInvalid, false)
		h.evictL3(ev, now)
		h.l3.meta[v].prefetched = true
	}
}
