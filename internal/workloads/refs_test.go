package workloads

import (
	"container/heap"

	"graphpim/internal/graph"
)

// Reference implementations used by tests to verify the framework-driven
// workloads' functional outputs. These share no code with the workloads:
// plain sequential Go over the raw graph.

// RefBFS returns depths from root (Infinity when unreachable).
func RefBFS(g *graph.Graph, root graph.VID) []uint64 {
	depth := make([]uint64, g.NumVertices())
	for i := range depth {
		depth[i] = Infinity
	}
	depth[root] = 0
	queue := []graph.VID{root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.OutNeighbors(u) {
			if depth[v] == Infinity {
				depth[v] = depth[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return depth
}

type pqItem struct {
	v graph.VID
	d uint64
}

type pq []pqItem

func (p pq) Len() int           { return len(p) }
func (p pq) Less(i, j int) bool { return p[i].d < p[j].d }
func (p pq) Swap(i, j int)      { p[i], p[j] = p[j], p[i] }
func (p *pq) Push(x any)        { *p = append(*p, x.(pqItem)) }
func (p *pq) Pop() any          { old := *p; n := len(old); it := old[n-1]; *p = old[:n-1]; return it }

// RefSSSP returns shortest distances from src via Dijkstra.
func RefSSSP(g *graph.Graph, src graph.VID) []uint64 {
	dist := make([]uint64, g.NumVertices())
	for i := range dist {
		dist[i] = Infinity
	}
	dist[src] = 0
	q := &pq{{src, 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if it.d > dist[it.v] {
			continue
		}
		ws := g.OutWeights(it.v)
		for i, n := range g.OutNeighbors(it.v) {
			nd := it.d + uint64(ws[i])
			if nd < dist[n] {
				dist[n] = nd
				heap.Push(q, pqItem{n, nd})
			}
		}
	}
	return dist
}

// RefCComp returns the minimum vertex id of each vertex's weakly
// connected component.
func RefCComp(g *graph.Graph) []uint64 {
	n := g.NumVertices()
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	for v := 0; v < n; v++ {
		for _, u := range g.OutNeighbors(graph.VID(v)) {
			union(v, int(u))
		}
	}
	out := make([]uint64, n)
	// Roots keep the minimum id by the union ordering above.
	for v := 0; v < n; v++ {
		out[v] = uint64(find(v))
	}
	return out
}

// RefDC returns in+out degree per vertex.
func RefDC(g *graph.Graph) []uint64 {
	out := make([]uint64, g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		out[v] = uint64(g.OutDegree(graph.VID(v)) + g.InDegree(graph.VID(v)))
	}
	return out
}

// RefKCore returns core numbers by sequential peeling, truncated at maxK
// levels (vertices surviving the maxK-core keep core number maxK).
func RefKCore(g *graph.Graph, maxK uint64) []uint64 {
	n := g.NumVertices()
	deg := make([]uint64, n)
	for v := 0; v < n; v++ {
		deg[v] = uint64(g.OutDegree(graph.VID(v)) + g.InDegree(graph.VID(v)))
	}
	removed := make([]bool, n)
	core := make([]uint64, n)
	remaining := n
	for k := uint64(1); remaining > 0 && (maxK == 0 || k <= maxK); k++ {
		for {
			changed := false
			for v := 0; v < n; v++ {
				if removed[v] || deg[v] >= k {
					continue
				}
				removed[v] = true
				core[v] = k - 1
				remaining--
				changed = true
				for _, u := range g.OutNeighbors(graph.VID(v)) {
					if !removed[u] {
						deg[u]--
					}
				}
				for _, u := range g.InNeighbors(graph.VID(v)) {
					if !removed[u] {
						deg[u]--
					}
				}
			}
			if !changed {
				break
			}
		}
	}
	for v := 0; v < n; v++ {
		if !removed[v] {
			core[v] = maxK
		}
	}
	return core
}

// RefPRank returns PageRank after the given synchronous iterations.
func RefPRank(g *graph.Graph, iterations int) []float64 {
	n := g.NumVertices()
	rank := make([]float64, n)
	for i := range rank {
		rank[i] = 1 / float64(n)
	}
	for it := 0; it < iterations; it++ {
		next := make([]float64, n)
		for v := 0; v < n; v++ {
			deg := g.OutDegree(graph.VID(v))
			if deg == 0 {
				continue
			}
			contrib := rank[v] / float64(deg)
			for _, u := range g.OutNeighbors(graph.VID(v)) {
				next[u] += contrib
			}
		}
		for v := 0; v < n; v++ {
			rank[v] = (1-Damping)/float64(n) + Damping*next[v]
		}
	}
	return rank
}

// RefBC returns Brandes betweenness centrality summed over BC's sampled
// sources, (s*7919) % n for s < min(sources, n): path counts flow
// forward along out-edges in BFS order, dependencies flow back along
// in-edges in reverse BFS order, and a source adds nothing to its own
// score.
func RefBC(g *graph.Graph, sources int) []float64 {
	n := g.NumVertices()
	score := make([]float64, n)
	if sources > n {
		sources = n
	}
	for s := 0; s < sources; s++ {
		src := graph.VID((s * 7919) % n)
		sigma := make([]float64, n)
		delta := make([]float64, n)
		depth := make([]int, n)
		for i := range depth {
			depth[i] = -1
		}
		sigma[src], depth[src] = 1, 0
		order := []graph.VID{src}
		for i := 0; i < len(order); i++ {
			u := order[i]
			for _, v := range g.OutNeighbors(u) {
				if depth[v] == -1 {
					depth[v] = depth[u] + 1
					order = append(order, v)
				}
				if depth[v] == depth[u]+1 {
					sigma[v] += sigma[u]
				}
			}
		}
		// order[0] is the source; every later vertex is reached.
		for i := len(order) - 1; i > 0; i-- {
			v := order[i]
			for _, u := range g.InNeighbors(v) {
				if depth[u] == depth[v]-1 {
					delta[u] += sigma[u] / sigma[v] * (1 + delta[v])
				}
			}
			score[v] += delta[v]
		}
	}
	return score
}

// RefTC returns the total directed-triangle count under the same
// orientation convention as TC (u < x < y, edges u->x, u->y, x->y).
func RefTC(g *graph.Graph) uint64 {
	var total uint64
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		u := graph.VID(v)
		nbrU := g.OutNeighbors(u)
		for _, x := range nbrU {
			if x <= u {
				continue
			}
			nbrX := g.OutNeighbors(x)
			i, j := 0, 0
			for i < len(nbrU) && j < len(nbrX) {
				switch {
				case nbrU[i] == nbrX[j]:
					if nbrU[i] > x {
						total++
					}
					i++
					j++
				case nbrU[i] < nbrX[j]:
					i++
				default:
					j++
				}
			}
		}
	}
	return total
}

// RefGNNMean computes mean aggregation directly from the graph.
func RefGNNMean(g *graph.Graph, dims int) [][]uint64 {
	n := g.NumVertices()
	out := make([][]uint64, dims)
	for d := range out {
		out[d] = make([]uint64, n)
	}
	for v := 0; v < n; v++ {
		u := graph.VID(v)
		for d := 0; d < dims; d++ {
			fv := featHash(u, d)
			for _, nb := range g.OutNeighbors(u) {
				out[d][nb] += fv
			}
		}
	}
	for v := 0; v < n; v++ {
		indeg := uint64(g.InDegree(graph.VID(v)))
		if indeg == 0 {
			continue
		}
		for d := 0; d < dims; d++ {
			out[d][v] /= indeg
		}
	}
	return out
}

// RefGNNMax computes max-pooling aggregation directly from the graph.
func RefGNNMax(g *graph.Graph, dims int) [][]uint64 {
	n := g.NumVertices()
	out := make([][]uint64, dims)
	for d := range out {
		out[d] = make([]uint64, n)
	}
	for v := 0; v < n; v++ {
		u := graph.VID(v)
		for d := 0; d < dims; d++ {
			fv := featHash(u, d)
			for _, nb := range g.OutNeighbors(u) {
				if fv > out[d][nb] {
					out[d][nb] = fv
				}
			}
		}
	}
	return out
}
