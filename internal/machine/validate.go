package machine

import (
	"fmt"

	"graphpim/internal/cache"
)

// Validate reports the first out-of-range field of the configuration as
// a descriptive error. New calls it and panics on failure (library
// misuse is a bug), while the CLI and facade call it at their entry
// points so a bad configuration exits with a message instead of a
// mid-construction panic.
func (c Config) Validate() error {
	if c.NumCores < 1 {
		return fmt.Errorf("config: NumCores must be at least 1 (got %d)", c.NumCores)
	}
	if c.NumCores > 32 {
		return fmt.Errorf("config: NumCores %d exceeds the 32-core directory limit", c.NumCores)
	}
	if c.CPU.IssueWidth < 1 {
		return fmt.Errorf("config: CPU issue width must be at least 1 (got %d)", c.CPU.IssueWidth)
	}
	if c.Cache.LineSize <= 0 || c.Cache.LineSize&(c.Cache.LineSize-1) != 0 {
		return fmt.Errorf("config: cache line size %d must be a power of two", c.Cache.LineSize)
	}
	for _, lvl := range []struct {
		name string
		size int
		ways int
	}{
		{"L1", c.Cache.L1Size, c.Cache.L1Ways},
		{"L2", c.Cache.L2Size, c.Cache.L2Ways},
		{"L3", c.Cache.L3Size, c.Cache.L3Ways},
	} {
		if lvl.ways < 1 || lvl.ways > cache.MaxWays {
			return fmt.Errorf("config: %s associativity %d is outside 1..%d (the LRU order word's limit)",
				lvl.name, lvl.ways, cache.MaxWays)
		}
		waySize := lvl.ways * c.Cache.LineSize
		if lvl.size < waySize || lvl.size%waySize != 0 {
			return fmt.Errorf("config: %s size %d is not a multiple of ways*line (%d)",
				lvl.name, lvl.size, waySize)
		}
		if sets := lvl.size / waySize; sets&(sets-1) != 0 {
			return fmt.Errorf("config: %s set count %d must be a power of two", lvl.name, sets)
		}
	}
	if c.HMCCubes < 0 || c.HMCCubes > 8 || (c.HMCCubes != 0 && c.HMCCubes&(c.HMCCubes-1) != 0) {
		return fmt.Errorf("config: HMCCubes %d must be a power of two in 1..8 (or 0 for the default)",
			c.HMCCubes)
	}
	// The backend validates its own geometry (vault/bank/channel counts,
	// timings); memConfig folds HMC/HMCCubes into the default backend
	// when Mem is nil, so the zero-value path is covered too.
	if err := c.memConfig().Validate(); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	return nil
}
