package graph

// UniformWeight reports whether every edge carries the same weight (the
// representation then stores no per-edge weight array) and, if so, that
// weight. An edgeless graph is uniform with weight 1.
func (g *Graph) UniformWeight() (uint32, bool) {
	if g.outW != nil {
		return 0, false
	}
	return g.uniformW, true
}

// InBuilt reports whether g's in-CSR has been built. Call it only when
// no other goroutine may be building it.
func InBuilt(g *Graph) bool { return g.inPtr != nil }

// InCSR returns g's in-CSR arrays as they stand, without building them
// (both nil before first use).
func InCSR(g *Graph) ([]uint64, []VID) { return g.inPtr, g.inSrc }
