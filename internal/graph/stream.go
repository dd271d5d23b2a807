package graph

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"graphpim/internal/parallel"
)

// EdgeStream is a deterministic, re-runnable source of directed edges.
// BuildStream consumes a stream twice (degree counting, then scatter),
// so every call to Edges must reproduce the identical edge sequence —
// generators re-seed their PRNG per call, file streams re-seek. A
// stream that implements the unexported splitter is split into parts
// built on separate goroutines: split(parts) returns exactly parts
// re-runnable streams, possibly empty, whose Edges sequences
// concatenated in part order are exactly the whole stream's sequence.
type EdgeStream interface {
	// NumVertices returns the vertex-id space [0, n) the edges live in.
	NumVertices() int
	// Edges calls emit for every edge, in a fixed order that is
	// identical on every invocation. emit returns false to stop early
	// (Edges then returns nil). Edges returns an error only for source
	// faults (I/O, parse) — never for graph-shape reasons.
	Edges(emit func(src, dst VID, w uint32) bool) error
}

// splitter is an EdgeStream that can be cut into consecutive parts (see
// EdgeStream); numEdges is its exact edge count, known before any pass.
type splitter interface {
	numEdges() int
	split(parts int) []EdgeStream
}

// splitRange cuts the edge index range [lo, hi) into parts consecutive
// ranges of near-equal size and builds one part stream per range.
func splitRange(lo, hi, parts int, part func(lo, hi int) EdgeStream) []EdgeStream {
	out := make([]EdgeStream, parts)
	for k := range out {
		out[k] = part(lo+(hi-lo)*k/parts, lo+(hi-lo)*(k+1)/parts)
	}
	return out
}

// sliceStream adapts an in-memory edge list to EdgeStream (tests, fuzz
// harnesses, and callers that already hold a materialized list).
type sliceStream struct {
	n     int
	edges []Edge
}

// SliceStream returns a re-runnable stream over a materialized edge
// list with n vertices. The slice is aliased, not copied.
func SliceStream(n int, edges []Edge) EdgeStream {
	if n <= 0 {
		panic(fmt.Sprintf("graph: invalid vertex count %d", n))
	}
	return &sliceStream{n: n, edges: edges}
}

func (s *sliceStream) NumVertices() int { return s.n }

func (s *sliceStream) Edges(emit func(src, dst VID, w uint32) bool) error {
	for _, e := range s.edges {
		if !emit(e.Src, e.Dst, e.Weight) {
			return nil
		}
	}
	return nil
}

func (s *sliceStream) numEdges() int { return len(s.edges) }

func (s *sliceStream) split(parts int) []EdgeStream {
	return splitRange(0, len(s.edges), parts, func(lo, hi int) EdgeStream {
		return &sliceStream{n: s.n, edges: s.edges[lo:hi]}
	})
}

// BuildStream builds the CSR graph of s without materializing an edge
// list (DESIGN.md §14): pass 1 counts out-degrees, pass 2 scatters each
// edge into its out-CSR slot, out-runs are sorted (and deduped) in
// place, and the in-CSR is the transpose of the final out-CSR. A
// splittable stream runs as one part per worker. The result is
// byte-identical at any part count to the materializing oracle in
// builder_test.go: out-edges ordered by (src, dst, weight), dedup
// keeping the minimum-weight copy of each parallel edge, in-edges
// ordered by source. A stream whose every edge carries one weight gets
// the uniform-weight representation (no per-edge weight array).
func BuildStream(s EdgeStream, dedup bool) (*Graph, error) {
	n := s.NumVertices()
	if n <= 0 {
		return nil, fmt.Errorf("graph: stream declares invalid vertex count %d", n)
	}
	return buildStream(s, buildWorkers(s, n), dedup)
}

// buildWorkers is the build's worker and part count: GOMAXPROCS,
// reduced so the (2w−1) n-word cursor arrays of w parts never exceed
// outDst's bytes, and 1 for a stream that cannot split.
func buildWorkers(s EdgeStream, n int) int {
	sp, ok := s.(splitter)
	if !ok {
		return 1
	}
	w := parallel.Workers(0)
	for w > 1 && (2*w-1)*8*n > 4*sp.numEdges() {
		w--
	}
	return w
}

// buildStream is BuildStream with an explicit worker count: a
// splittable s is cut into exactly that many parts.
func buildStream(s EdgeStream, workers int, dedup bool) (*Graph, error) {
	parts := []EdgeStream{s}
	if sp, ok := s.(splitter); ok && workers > 1 {
		parts = sp.split(workers)
	}
	g, uniform, uw, err := scatterOut(s.NumVertices(), parts)
	if err != nil {
		return nil, err
	}
	sortRuns(g, uniform, workers)
	if dedup {
		dedupOut(g, uniform)
		// Uniformity is a property of the SURVIVING edges (the oracle
		// checks it after dedup): parallel edges whose differing
		// weights all deduped away leave a uniform graph the raw
		// pass-1 scan missed.
		if !uniform {
			uw = g.outW[0]
			uniform = !slices.ContainsFunc(g.outW, func(w uint32) bool { return w != uw })
		}
	}
	if uniform {
		g.setUniform(uw)
	}
	g.transpose()
	return g, nil
}

// partCount is what pass 1 learns about one part.
type partCount struct {
	first   uint64 // whole-stream index of the part's first edge
	m       uint64 // edges
	uniform bool   // every edge carries weight uw
	uw      uint32
	err     error
}

// scatterOut runs both passes over the parts and returns the unsorted
// out-CSR. Part k's slots for vertex v follow those of parts 0..k−1 and
// end where part k+1's begin (the last part's at outPtr[v+1]); pass 2
// checks every write against that end, kept read-only in ends. Part 0's
// cursor array, dead after pass 2, is left in g.inPtr for the transpose
// to reuse, so a one-part build never holds more than the final graph.
func scatterOut(n int, parts []EdgeStream) (*Graph, bool, uint32, error) {
	P := len(parts)
	// Pass 1: part k counts its out-degrees into cur[k].
	cur := make([][]uint64, P)
	for k := range cur {
		cur[k] = make([]uint64, n+1) // n+1: the in-CSR pointers' length
	}
	counts := make([]partCount, P)
	forEach(P, func(k int) { counts[k] = countPart(parts[k], n, cur[k]) })
	var m uint64
	uniform, uw := true, uint32(1)
	for k := range counts {
		c := &counts[k]
		if c.err != nil {
			return nil, false, 0, c.err
		}
		if c.m > 0 {
			if !c.uniform || (m > 0 && c.uw != uw) {
				uniform = false
			}
			uw = c.uw
		}
		c.first = m
		m += c.m
	}

	// Prefix sums: turn each part's counts into its start slots.
	outPtr := make([]uint64, n+1)
	for v := 0; v < n; v++ {
		pos := outPtr[v]
		for _, c := range cur {
			c[v], pos = pos, pos+c[v]
		}
		outPtr[v+1] = pos
	}
	ends := make([][]uint64, P)
	for k := range P - 1 {
		ends[k] = slices.Clone(cur[k+1][:n])
	}
	ends[P-1] = outPtr[1:]

	// Pass 2: scatter through the per-part cursors.
	g := &Graph{numVertices: n, outPtr: outPtr, outDst: make([]VID, m), inPtr: cur[0]}
	if !uniform {
		g.outW = make([]uint32, m)
	}
	errs := make([]error, P)
	forEach(P, func(k int) { errs[k] = g.scatterPart(parts[k], cur[k], ends[k], counts[k]) })
	for _, err := range errs {
		if err != nil {
			return nil, false, 0, err
		}
	}
	return g, uniform, uw, nil
}

// countPart is pass 1 over one part: range-check every edge, count
// out-degrees into deg, and detect a single common weight.
func countPart(s EdgeStream, n int, deg []uint64) partCount {
	c := partCount{uniform: true}
	var rangeErr error
	err := s.Edges(func(src, dst VID, w uint32) bool {
		if int(src) >= n || int(dst) >= n {
			rangeErr = fmt.Errorf("graph: stream edge (%d,%d) out of range [0,%d)", src, dst, n)
			return false
		}
		if c.m == 0 {
			c.uw = w
		} else if w != c.uw {
			c.uniform = false
		}
		deg[src]++
		c.m++
		return true
	})
	if c.err = err; err == nil {
		c.err = rangeErr
	}
	return c
}

// scatterPart is pass 2 over one part: each edge goes to cur[src],
// which must stay below end[src]. With no overflow and exactly the m
// edges pass 1 counted, every cursor has reached its end — the fills
// sum to the counts and none exceeds its own.
func (g *Graph) scatterPart(s EdgeStream, cur, end []uint64, c partCount) error {
	n := g.numVertices
	first, m := c.first, c.m
	var seen uint64
	var changed error
	err := s.Edges(func(src, dst VID, w uint32) bool {
		if int(src) >= n || int(dst) >= n || seen == m {
			changed = fmt.Errorf("graph: stream changed between passes (edge %d)", first+seen)
			return false
		}
		i := cur[src]
		if i >= end[src] {
			changed = fmt.Errorf("graph: stream changed between passes (vertex %d overflow)", src)
			return false
		}
		g.outDst[i] = dst
		if g.outW != nil {
			g.outW[i] = w
		}
		cur[src] = i + 1
		seen++
		return true
	})
	if err != nil {
		return err
	}
	if changed != nil {
		return changed
	}
	if seen != m {
		return fmt.Errorf("graph: stream changed between passes (%d edges, then %d)", m, seen)
	}
	return nil
}

// forEach runs fn(0..n−1) on n goroutines (inline when n is 1). A build
// has no caller context to cancel it.
func forEach(n int, fn func(k int)) {
	_ = parallel.ForEach(context.TODO(), n, n, fn)
}

// sortRuns sorts every out-run by (dst, weight), on workers goroutines
// over vertex ranges holding near-equal edge counts. Weighted runs sort
// as packed dst<<32|w keys, whose order is exactly (dst, weight); ties
// are indistinguishable, so the result is deterministic.
func sortRuns(g *Graph, uniform bool, workers int) {
	m := uint64(len(g.outDst))
	vertexAt := func(k int) int {
		e := m * uint64(k) / uint64(workers)
		return sort.Search(g.numVertices, func(v int) bool { return g.outPtr[v] >= e })
	}
	forEach(workers, func(k int) {
		var keys []uint64
		for v, end := vertexAt(k), vertexAt(k+1); v < end; v++ {
			lo, hi := g.outPtr[v], g.outPtr[v+1]
			if uniform {
				slices.Sort(g.outDst[lo:hi])
				continue
			}
			keys = keys[:0]
			for i := lo; i < hi; i++ {
				keys = append(keys, uint64(g.outDst[i])<<32|uint64(g.outW[i]))
			}
			slices.Sort(keys)
			for j, key := range keys {
				g.outDst[lo+uint64(j)] = VID(key >> 32)
				g.outW[lo+uint64(j)] = uint32(key)
			}
		}
	})
}

// dedupOut removes duplicate (src,dst) edges from the out-CSR in place,
// compacting front to back. Out-runs are (dst, weight)-sorted, so equal
// dsts are adjacent and the first kept copy carries the minimum weight.
func dedupOut(g *Graph, uniform bool) {
	n := g.numVertices
	var w uint64
	for v := 0; v < n; v++ {
		lo, hi := g.outPtr[v], g.outPtr[v+1]
		g.outPtr[v] = w
		for i := lo; i < hi; i++ {
			if i > lo && g.outDst[i] == g.outDst[i-1] {
				continue
			}
			g.outDst[w] = g.outDst[i]
			if !uniform {
				g.outW[w] = g.outW[i]
			}
			w++
		}
	}
	g.outPtr[n] = w
	g.outDst = g.outDst[:w]
	if !uniform {
		g.outW = g.outW[:w]
	}
}

// transpose builds the in-CSR from the final out-CSR, reusing g.inPtr's
// n+1 words: count in-degrees, then scatter sources in ascending order,
// so every in-run comes out sorted, and duplicate-free whenever the
// out-CSR is. The in-pointers serve as write cursors and are shifted
// back down afterwards.
func (g *Graph) transpose() {
	n := g.numVertices
	inPtr := g.inPtr
	clear(inPtr)
	for _, d := range g.outDst {
		inPtr[d+1]++
	}
	for v := 1; v <= n; v++ {
		inPtr[v] += inPtr[v-1]
	}
	inSrc := make([]VID, len(g.outDst))
	for u := 0; u < n; u++ {
		for _, d := range g.outDst[g.outPtr[u]:g.outPtr[u+1]] {
			inSrc[inPtr[d]] = VID(u)
			inPtr[d]++
		}
	}
	copy(inPtr[1:], inPtr[:n])
	inPtr[0] = 0
	g.inPtr, g.inSrc = inPtr, inSrc
}

// mustBuildStream builds from a generator stream, whose Edges never
// fails and whose vertex ids are in range by construction.
func mustBuildStream(s EdgeStream, dedup bool) *Graph {
	g, err := BuildStream(s, dedup)
	if err != nil {
		panic(fmt.Sprintf("graph: generator stream failed: %v", err))
	}
	return g
}
