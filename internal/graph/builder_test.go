package graph

import (
	"fmt"
	"sort"
)

// Builder is the materialize-then-sort CSR construction: the executable
// specification BuildStream is gated against. It holds the whole edge
// list, sorts a copy of it, and scatters both CSRs from the sorted list,
// sharing no code with the streaming build beyond setUniform. The
// equivalence suite (TestStreamEquivalence, FuzzBuildStream, and the
// LDBC-1M check behind GRAPHPIM_GRAPH_SMOKE) asserts both produce
// identical CSR arrays.
type Builder struct {
	numVertices int
	edges       []Edge
}

// NewBuilder returns a Builder for a graph with n vertices.
func NewBuilder(n int) *Builder {
	if n <= 0 {
		panic(fmt.Sprintf("graph: invalid vertex count %d", n))
	}
	return &Builder{numVertices: n}
}

// AddEdge appends a directed edge with weight 1.
func (b *Builder) AddEdge(src, dst VID) { b.AddWeightedEdge(src, dst, 1) }

// AddWeightedEdge appends a directed edge.
func (b *Builder) AddWeightedEdge(src, dst VID, w uint32) {
	if int(src) >= b.numVertices || int(dst) >= b.numVertices {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", src, dst, b.numVertices))
	}
	b.edges = append(b.edges, Edge{Src: src, Dst: dst, Weight: w})
}

// NumEdges returns the number of edges added so far.
func (b *Builder) NumEdges() int { return len(b.edges) }

// Build finalizes the CSR structures. Self-loops are kept; duplicate
// edges are dropped when dedup is true. Build does not disturb the
// builder: it sorts (and dedups) a copy of the edge list, so NumEdges
// stays truthful afterwards and AddEdge-then-rebuild keeps working.
//
// Edges are ordered by (Src, Dst, Weight) — a total order, so the
// result is a fully specified function of the edge multiset and dedup
// keeps the minimum-weight copy of each parallel edge (the SSSP-relevant
// one).
func (b *Builder) Build(dedup bool) *Graph {
	edges := make([]Edge, len(b.edges))
	copy(edges, b.edges)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Src != edges[j].Src {
			return edges[i].Src < edges[j].Src
		}
		if edges[i].Dst != edges[j].Dst {
			return edges[i].Dst < edges[j].Dst
		}
		return edges[i].Weight < edges[j].Weight
	})
	if dedup {
		out := edges[:0]
		for i, e := range edges {
			if i > 0 && e.Src == out[len(out)-1].Src && e.Dst == out[len(out)-1].Dst {
				continue
			}
			out = append(out, e)
		}
		edges = out
	}

	uniform, uw := true, uint32(1)
	for i, e := range edges {
		if i == 0 {
			uw = e.Weight
		} else if e.Weight != uw {
			uniform = false
			break
		}
	}

	g := &Graph{numVertices: b.numVertices}
	n := b.numVertices
	g.outPtr = make([]uint64, n+1)
	g.outDst = make([]VID, len(edges))
	if !uniform {
		g.outW = make([]uint32, len(edges))
	}
	for _, e := range edges {
		g.outPtr[e.Src+1]++
	}
	for v := 1; v <= n; v++ {
		g.outPtr[v] += g.outPtr[v-1]
	}
	fill := make([]uint64, n)
	for _, e := range edges {
		idx := g.outPtr[e.Src] + fill[e.Src]
		g.outDst[idx] = e.Dst
		if !uniform {
			g.outW[idx] = e.Weight
		}
		fill[e.Src]++
	}

	// In-CSR, built eagerly: the oracle shares no code with transpose.
	g.inPtr = make([]uint64, n+1)
	g.inSrc = make([]VID, len(edges))
	for _, e := range edges {
		g.inPtr[e.Dst+1]++
	}
	for v := 1; v <= n; v++ {
		g.inPtr[v] += g.inPtr[v-1]
	}
	for v := range fill {
		fill[v] = 0
	}
	for _, e := range edges {
		idx := g.inPtr[e.Dst] + fill[e.Dst]
		g.inSrc[idx] = e.Src
		fill[e.Dst]++
	}
	g.inOnce.Do(func() {}) // already built
	if uniform {
		g.setUniform(uw)
	}
	return g
}
