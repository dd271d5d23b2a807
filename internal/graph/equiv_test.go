package graph

import (
	"fmt"
	"os"
	"testing"
)

// materialize feeds every edge of s into a legacy Builder — the
// executable specification BuildStream is gated against.
func materialize(t *testing.T, s EdgeStream) *Builder {
	t.Helper()
	b := NewBuilder(s.NumVertices())
	if err := s.Edges(func(src, dst VID, w uint32) bool {
		b.AddWeightedEdge(src, dst, w)
		return true
	}); err != nil {
		t.Fatalf("stream failed: %v", err)
	}
	return b
}

// requireIdentical asserts the two graphs have byte-identical CSR
// arrays — not just isomorphic structure. Identical arrays mean
// identical simulated addresses, traces, and simulation results.
func requireIdentical(t *testing.T, want, got *Graph) {
	t.Helper()
	if want.numVertices != got.numVertices {
		t.Fatalf("vertex count %d != %d", got.numVertices, want.numVertices)
	}
	for i := range want.outPtr {
		if want.outPtr[i] != got.outPtr[i] {
			t.Fatalf("outPtr[%d]: %d != %d", i, got.outPtr[i], want.outPtr[i])
		}
	}
	if len(want.outDst) != len(got.outDst) {
		t.Fatalf("edge count %d != %d", len(got.outDst), len(want.outDst))
	}
	for i := range want.outDst {
		if want.outDst[i] != got.outDst[i] {
			t.Fatalf("outDst[%d]: %d != %d", i, got.outDst[i], want.outDst[i])
		}
	}
	if (want.outW == nil) != (got.outW == nil) {
		t.Fatalf("weight representation mismatch: want uniform=%v got uniform=%v",
			want.outW == nil, got.outW == nil)
	}
	for i := range want.outW {
		if want.outW[i] != got.outW[i] {
			t.Fatalf("outW[%d]: %d != %d", i, got.outW[i], want.outW[i])
		}
	}
	if want.uniformW != got.uniformW {
		t.Fatalf("uniform weight %d != %d", got.uniformW, want.uniformW)
	}
	wantPtr, wantSrc := want.inCSR()
	gotPtr, gotSrc := got.inCSR()
	for i := range wantPtr {
		if wantPtr[i] != gotPtr[i] {
			t.Fatalf("inPtr[%d]: %d != %d", i, gotPtr[i], wantPtr[i])
		}
	}
	if len(wantSrc) != len(gotSrc) {
		t.Fatalf("in-edge count %d != %d", len(gotSrc), len(wantSrc))
	}
	for i := range wantSrc {
		if wantSrc[i] != gotSrc[i] {
			t.Fatalf("inSrc[%d]: %d != %d", i, gotSrc[i], wantSrc[i])
		}
	}
}

// generatorCase names one generator stream and the dedup flag its Graph
// constructor uses.
type generatorCase struct {
	name   string
	dedup  bool
	stream func(vertices int, seed uint64) EdgeStream
}

func generatorCases() []generatorCase {
	return []generatorCase{
		{"ldbc", true, LDBCStream},
		{"rmat", true, func(v int, s uint64) EdgeStream {
			return RMATStream(v, 8, 0.5, 0.2, 0.15, s)
		}},
		{"er", true, func(v int, s uint64) EdgeStream {
			return ErdosRenyiStream(v, 6, s)
		}},
		{"bitcoin", false, BitcoinLikeStream},
		{"twitter", true, TwitterLikeStream},
	}
}

// TestStreamEquivalence is the gate for the streaming build: for every
// generator × size × seed, BuildStream must produce CSR arrays
// byte-identical to the legacy materialize-then-sort Builder.Build.
// The 100k size is skipped in -short; LDBC-1M runs under the
// GRAPHPIM_GRAPH_SMOKE gate (see smoke_test.go).
func TestStreamEquivalence(t *testing.T) {
	sizes := []int{1_000, 10_000}
	if !testing.Short() {
		sizes = append(sizes, 100_000)
	}
	for _, gc := range generatorCases() {
		for _, size := range sizes {
			seeds := []uint64{1, 7, 42}
			if size >= 100_000 {
				seeds = seeds[:1]
			}
			for _, seed := range seeds {
				t.Run(fmt.Sprintf("%s/%d/seed%d", gc.name, size, seed), func(t *testing.T) {
					s := gc.stream(size, seed)
					want := materialize(t, s).Build(gc.dedup)
					got, err := BuildStream(s, gc.dedup)
					if err != nil {
						t.Fatalf("BuildStream: %v", err)
					}
					requireIdentical(t, want, got)
					if err := got.Validate(); err != nil {
						t.Fatalf("Validate: %v", err)
					}
				})
			}
		}
	}
}

// TestStreamEquivalenceMillion extends the equivalence gate to the
// paper-scale LDBC-1M point. It needs several GB for the legacy side
// (that is the point of the streaming build), so it only runs when
// GRAPHPIM_GRAPH_SMOKE=1 — CI's graph-smoke job and `make smoke-graph`.
func TestStreamEquivalenceMillion(t *testing.T) {
	if os.Getenv("GRAPHPIM_GRAPH_SMOKE") == "" {
		t.Skip("set GRAPHPIM_GRAPH_SMOKE=1 to run the 1M equivalence check")
	}
	s := LDBCStream(1_000_000, 7)
	want := materialize(t, s).Build(true)
	got, err := BuildStream(s, true)
	if err != nil {
		t.Fatalf("BuildStream: %v", err)
	}
	requireIdentical(t, want, got)
}

// TestStreamRerunnable asserts the generator contract BuildStream
// depends on: two Edges calls yield the identical sequence.
func TestStreamRerunnable(t *testing.T) {
	for _, gc := range generatorCases() {
		t.Run(gc.name, func(t *testing.T) {
			s := gc.stream(2_000, 9)
			var first []Edge
			if err := s.Edges(func(src, dst VID, w uint32) bool {
				first = append(first, Edge{src, dst, w})
				return true
			}); err != nil {
				t.Fatal(err)
			}
			i := 0
			if err := s.Edges(func(src, dst VID, w uint32) bool {
				if first[i] != (Edge{src, dst, w}) {
					t.Fatalf("edge %d differs between runs: %v vs %v", i, first[i], Edge{src, dst, w})
				}
				i++
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if i != len(first) {
				t.Fatalf("second run emitted %d edges, first %d", i, len(first))
			}
		})
	}
}

// TestRMATDegreeDistribution pins the noised R-MAT construction: exact
// edge count, max out-degree, and a coarse degree histogram for a fixed
// (config, seed). A change to the per-level noise, the quadrant walk, or
// the dedup semantics moves these numbers and must be deliberate.
func TestRMATDegreeDistribution(t *testing.T) {
	g := RMAT(4096, 16, 0.45, 0.22, 0.22, 1)
	if got, want := g.NumEdges(), 63928; got != want {
		t.Errorf("edges = %d, want %d", got, want)
	}
	maxDeg := 0
	var hist [5]int // degree buckets: 0, 1-8, 9-32, 33-128, >128
	for v := 0; v < 4096; v++ {
		d := g.OutDegree(VID(v))
		if d > maxDeg {
			maxDeg = d
		}
		switch {
		case d == 0:
			hist[0]++
		case d <= 8:
			hist[1]++
		case d <= 32:
			hist[2]++
		case d <= 128:
			hist[3]++
		default:
			hist[4]++
		}
	}
	if maxDeg != 455 {
		t.Errorf("max out-degree = %d, want 455", maxDeg)
	}
	if hist != [5]int{226, 1960, 1404, 469, 37} {
		t.Errorf("degree histogram = %v, want [226 1960 1404 469 37]", hist)
	}

	// The noise must actually vary per level — a constant threshold
	// vector would reintroduce the self-similar construction the
	// comment used to falsely promise was perturbed.
	rs := RMATStream(4096, 16, 0.45, 0.22, 0.22, 1).(*rmatStream)
	varies := false
	for l := 1; l < rs.levels; l++ {
		if rs.ta[l] != rs.ta[0] || rs.tab[l] != rs.tab[0] || rs.tabc[l] != rs.tabc[0] {
			varies = true
			break
		}
	}
	if !varies {
		t.Error("per-level thresholds are constant; noise is not applied")
	}
}

// TestUniformWeightRepresentation checks the 4B/edge weight array is
// dropped exactly when all weights agree, without changing OutWeights.
func TestUniformWeightRepresentation(t *testing.T) {
	tw := TwitterLike(500, 3)
	if w, ok := tw.UniformWeight(); !ok || w != 1 {
		t.Fatalf("TwitterLike UniformWeight = (%d,%v), want (1,true)", w, ok)
	}
	for v := 0; v < 500; v++ {
		ws := tw.OutWeights(VID(v))
		if len(ws) != tw.OutDegree(VID(v)) {
			t.Fatalf("OutWeights(%d) length %d != degree %d", v, len(ws), tw.OutDegree(VID(v)))
		}
		for _, w := range ws {
			if w != 1 {
				t.Fatalf("OutWeights(%d) contains %d, want all 1", v, w)
			}
		}
	}

	ld := LDBC(500, 3)
	if _, ok := ld.UniformWeight(); ok {
		t.Fatal("weighted LDBC graph reported as uniform")
	}

	// Uniform at a non-default weight value.
	g, err := BuildStream(SliceStream(4, []Edge{{0, 1, 9}, {2, 3, 9}, {1, 0, 9}}), true)
	if err != nil {
		t.Fatal(err)
	}
	if w, ok := g.UniformWeight(); !ok || w != 9 {
		t.Fatalf("UniformWeight = (%d,%v), want (9,true)", w, ok)
	}
	if ws := g.OutWeights(0); len(ws) != 1 || ws[0] != 9 {
		t.Fatalf("OutWeights(0) = %v, want [9]", ws)
	}
}

// mutatingStream violates the re-runnability contract: the second pass
// emits an extra edge.
type mutatingStream struct{ calls int }

func (s *mutatingStream) NumVertices() int { return 4 }
func (s *mutatingStream) Edges(emit func(src, dst VID, w uint32) bool) error {
	s.calls++
	n := 2
	if s.calls > 1 {
		n = 3
	}
	for i := 0; i < n; i++ {
		if !emit(0, 1, 1) {
			return nil
		}
	}
	return nil
}

// shrinkingStream emits fewer edges on the second pass.
type shrinkingStream struct{ calls int }

func (s *shrinkingStream) NumVertices() int { return 4 }
func (s *shrinkingStream) Edges(emit func(src, dst VID, w uint32) bool) error {
	s.calls++
	n := 3
	if s.calls > 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		if !emit(0, 1, 1) {
			return nil
		}
	}
	return nil
}

func TestBuildStreamErrors(t *testing.T) {
	if _, err := BuildStream(SliceStream(4, []Edge{{0, 9, 1}}), true); err == nil {
		t.Error("out-of-range destination not rejected")
	}
	if _, err := BuildStream(SliceStream(4, []Edge{{9, 0, 1}}), true); err == nil {
		t.Error("out-of-range source not rejected")
	}
	if _, err := BuildStream(&mutatingStream{}, false); err == nil {
		t.Error("growing second pass not rejected")
	}
	if _, err := BuildStream(&shrinkingStream{}, false); err == nil {
		t.Error("shrinking second pass not rejected")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SliceStream(0, nil) did not panic")
			}
		}()
		SliceStream(0, nil)
	}()
}

// TestBuildStreamEmpty covers the edgeless graph (uniform weight 1 by
// definition).
func TestBuildStreamEmpty(t *testing.T) {
	g, err := BuildStream(SliceStream(3, nil), true)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 0 || g.NumVertices() != 3 {
		t.Fatalf("got %d vertices / %d edges", g.NumVertices(), g.NumEdges())
	}
	if w, ok := g.UniformWeight(); !ok || w != 1 {
		t.Fatalf("UniformWeight = (%d,%v), want (1,true)", w, ok)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestBuildStreamDedupKeepsMinWeight pins the dedup tie-break both
// builders share: the minimum-weight copy of a parallel edge survives.
func TestBuildStreamDedupKeepsMinWeight(t *testing.T) {
	edges := []Edge{{0, 1, 7}, {0, 1, 3}, {0, 1, 5}, {1, 0, 2}}
	want := func() *Graph {
		b := NewBuilder(2)
		for _, e := range edges {
			b.AddWeightedEdge(e.Src, e.Dst, e.Weight)
		}
		return b.Build(true)
	}()
	got, err := BuildStream(SliceStream(2, edges), true)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, want, got)
	if ws := got.OutWeights(0); len(ws) != 1 || ws[0] != 3 {
		t.Fatalf("OutWeights(0) = %v, want [3]", ws)
	}
}
