// Package graph provides the property-graph substrate the workloads run
// on: a compressed sparse row (CSR) representation with both out- and
// in-edge adjacency, plus deterministic synthetic generators standing in
// for the paper's datasets (LDBC social-network graphs, and the Bitcoin
// and Twitter graphs of the real-world applications).
package graph

// VID is a vertex identifier.
type VID uint32

// Edge is one directed edge with an integer weight (used by SSSP; weight 1
// for unweighted algorithms).
type Edge struct {
	Src, Dst VID
	Weight   uint32
}

// Graph is an immutable directed graph in CSR form. In-edges are
// materialized too, as the transpose of the out-CSR, since several
// workloads (PageRank, Betweenness Centrality) pull along reverse edges.
type Graph struct {
	numVertices int

	// Out-CSR.
	outPtr []uint64
	outDst []VID
	// outW holds per-edge weights, parallel to outDst. It is nil when
	// every edge carries the same weight (the uniformWeight fast path):
	// unweighted graphs then cost 4 bytes/edge less, and OutWeights
	// serves windows of uniformBuf instead.
	outW     []uint32
	uniformW uint32
	// uniformBuf is a read-only run of uniformW values at least as long
	// as the maximum out-degree, so OutWeights can return an aliased
	// window of the right length without allocating.
	uniformBuf []uint32

	// In-CSR.
	inPtr []uint64
	inSrc []VID
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return g.numVertices }

// NumEdges returns the directed edge count.
func (g *Graph) NumEdges() int { return len(g.outDst) }

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v VID) int {
	return int(g.outPtr[v+1] - g.outPtr[v])
}

// InDegree returns the in-degree of v.
func (g *Graph) InDegree(v VID) int {
	return int(g.inPtr[v+1] - g.inPtr[v])
}

// OutNeighbors returns the destinations of v's out-edges. The slice
// aliases internal storage and must not be modified.
func (g *Graph) OutNeighbors(v VID) []VID {
	return g.outDst[g.outPtr[v]:g.outPtr[v+1]]
}

// OutWeights returns the weights of v's out-edges, parallel to
// OutNeighbors. For uniform-weight graphs the returned slice aliases a
// shared constant buffer; in all cases it must not be modified.
func (g *Graph) OutWeights(v VID) []uint32 {
	if g.outW == nil {
		return g.uniformBuf[:g.outPtr[v+1]-g.outPtr[v]]
	}
	return g.outW[g.outPtr[v]:g.outPtr[v+1]]
}

// UniformWeight reports whether every edge carries the same weight (the
// representation then stores no per-edge weight array) and, if so, that
// weight. An edgeless graph is uniform with weight 1.
func (g *Graph) UniformWeight() (uint32, bool) {
	if g.outW != nil {
		return 0, false
	}
	return g.uniformW, true
}

// InNeighbors returns the sources of v's in-edges. The slice aliases
// internal storage and must not be modified.
func (g *Graph) InNeighbors(v VID) []VID {
	return g.inSrc[g.inPtr[v]:g.inPtr[v+1]]
}

// OutEdgeIndex returns the global CSR index of v's first out-edge; the
// framework uses it to derive simulated addresses for structure accesses.
func (g *Graph) OutEdgeIndex(v VID) uint64 { return g.outPtr[v] }

// setUniform switches g to the uniform-weight representation: outW is
// dropped and OutWeights serves windows of a shared buffer sized to the
// maximum out-degree. Must be called after outPtr is final.
func (g *Graph) setUniform(w uint32) {
	g.outW = nil
	g.uniformW = w
	var maxDeg uint64
	for v := 0; v < g.numVertices; v++ {
		if d := g.outPtr[v+1] - g.outPtr[v]; d > maxDeg {
			maxDeg = d
		}
	}
	g.uniformBuf = make([]uint32, maxDeg)
	for i := range g.uniformBuf {
		g.uniformBuf[i] = w
	}
}

// StructureBytes estimates the memory footprint of the CSR structure,
// used for Table VI reporting. Uniform-weight graphs carry no per-edge
// weight array, only the shared max-degree buffer.
func (g *Graph) StructureBytes() uint64 {
	return uint64(len(g.outPtr))*8 + uint64(len(g.outDst))*4 + uint64(len(g.outW))*4 +
		uint64(len(g.uniformBuf))*4 +
		uint64(len(g.inPtr))*8 + uint64(len(g.inSrc))*4
}

// EstimateCSRBytes is the closed-form StructureBytes of a CSR over the
// given vertex and directed-edge counts: both pointer arrays, both
// adjacency arrays, and (for weighted graphs) the per-edge weight array.
// Table VI uses it to project paper-scale footprints without building
// the graphs.
func EstimateCSRBytes(vertices, edges uint64, weighted bool) uint64 {
	b := 2*(vertices+1)*8 + 2*edges*4
	if weighted {
		b += edges * 4
	}
	return b
}
