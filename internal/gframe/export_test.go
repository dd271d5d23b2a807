package gframe

import (
	"graphpim/internal/graph"
	"graphpim/internal/trace"
)

// ChunkRanges partitions [0, n) into contiguous per-thread ranges, the
// framework's static work distribution.
func ChunkRanges(n, threads int) [][2]int {
	out := make([][2]int, threads)
	chunk := (n + threads - 1) / threads
	for t := 0; t < threads; t++ {
		lo := t * chunk
		hi := lo + chunk
		if lo > n {
			lo = n
		}
		if hi > n {
			hi = n
		}
		out[t] = [2]int{lo, hi}
	}
	return out
}

// AtomicAddRet is AtomicAdd whose fetched old value feeds later
// instructions (e.g. kCore's degree decrement feeding the <k test).
func (c *Ctx) AtomicAddRet(p *Property, v graph.VID, delta int64) uint64 {
	old := p.vals[v]
	c.e.Atomic(trace.AtomicAdd, p.Addr(v), int(p.elem), false, true, false)
	p.vals[v] = uint64(int64(old) + delta)
	return old
}
