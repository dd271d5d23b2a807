package cache

// PrefetchAccuracy returns issued prefetches and how many were later hit
// by demand accesses.
func (h *Hierarchy) PrefetchAccuracy() (issued, useful uint64) {
	return h.stats.Get("cache.prefetch.issued"), h.stats.Get("cache.prefetch.useful")
}
