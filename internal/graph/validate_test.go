package graph

import "fmt"

// Validate checks CSR well-formedness: pointer arrays, id ranges, the
// weight representation, ascending in-runs, and that the in-CSR (built
// here if nothing has read it yet) is exactly the transpose of the
// out-CSR. Only tests call it.
func (g *Graph) Validate() error {
	n := g.numVertices
	inPtr, inSrc := g.inCSR()
	if len(g.outPtr) != n+1 || len(inPtr) != n+1 {
		return fmt.Errorf("graph: pointer array length mismatch")
	}
	if g.outPtr[0] != 0 || inPtr[0] != 0 {
		return fmt.Errorf("graph: pointer arrays must start at 0")
	}
	if g.outPtr[n] != uint64(len(g.outDst)) || inPtr[n] != uint64(len(inSrc)) {
		return fmt.Errorf("graph: pointer arrays must end at edge count")
	}
	for v := 0; v < n; v++ {
		if g.outPtr[v] > g.outPtr[v+1] || inPtr[v] > inPtr[v+1] {
			return fmt.Errorf("graph: non-monotonic pointer at vertex %d", v)
		}
	}
	for _, d := range g.outDst {
		if int(d) >= n {
			return fmt.Errorf("graph: out-edge destination %d out of range", d)
		}
	}
	for _, s := range inSrc {
		if int(s) >= n {
			return fmt.Errorf("graph: in-edge source %d out of range", s)
		}
	}
	// Edge counts must agree between the two CSRs.
	if len(g.outDst) != len(inSrc) {
		return fmt.Errorf("graph: out/in edge count mismatch %d != %d", len(g.outDst), len(inSrc))
	}
	// Every in-run is ascending, and the in-CSR is exactly the transpose
	// of the out-CSR: walking the out-edges (u, d) in ascending u must
	// consume each in-run of d in order. The edge counts agree, so once
	// every out-edge is matched, every in-run has been consumed whole.
	for v := 0; v < n; v++ {
		run := inSrc[inPtr[v]:inPtr[v+1]]
		for i := 1; i < len(run); i++ {
			if run[i] < run[i-1] {
				return fmt.Errorf("graph: in-run of vertex %d not ascending at %d", v, i)
			}
		}
	}
	next := make([]uint64, n)
	copy(next, inPtr)
	for u := 0; u < n; u++ {
		for _, d := range g.outDst[g.outPtr[u]:g.outPtr[u+1]] {
			if i := next[d]; i == inPtr[d+1] || inSrc[i] != VID(u) {
				return fmt.Errorf("graph: out-edge (%d,%d) missing from the in-CSR", u, d)
			}
			next[d]++
		}
	}
	// Weight storage: either a full parallel array or the uniform
	// buffer, which must cover the maximum out-degree.
	if g.outW != nil {
		if len(g.outW) != len(g.outDst) {
			return fmt.Errorf("graph: weight array length %d != edge count %d", len(g.outW), len(g.outDst))
		}
	} else {
		var maxDeg uint64
		for v := 0; v < n; v++ {
			if d := g.outPtr[v+1] - g.outPtr[v]; d > maxDeg {
				maxDeg = d
			}
		}
		if uint64(len(g.uniformBuf)) < maxDeg {
			return fmt.Errorf("graph: uniform weight buffer %d shorter than max out-degree %d",
				len(g.uniformBuf), maxDeg)
		}
	}
	return nil
}
