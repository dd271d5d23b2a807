package graph

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// collect returns the edge sequence one Edges call emits.
func collect(t *testing.T, s EdgeStream) []Edge {
	t.Helper()
	var out []Edge
	if err := s.Edges(func(src, dst VID, w uint32) bool {
		out = append(out, Edge{src, dst, w})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSplitConcatenates checks the split contract on every splittable
// stream: the parts, run in order, emit exactly the whole stream's
// sequence, and each part is re-runnable. The sizes include edge counts
// no part count divides, so parts differ in length.
func TestSplitConcatenates(t *testing.T) {
	streams := map[string]EdgeStream{
		"slice/11": SliceStream(5, []Edge{{0, 1, 1}, {1, 2, 2}, {2, 3, 3}, {3, 4, 4}, {4, 0, 5},
			{0, 2, 6}, {1, 3, 7}, {2, 4, 8}, {3, 0, 9}, {4, 1, 10}, {0, 3, 11}}),
		"slice/0": SliceStream(3, nil),
	}
	for _, gc := range generatorCases() {
		for _, size := range []int{1003, 2000} {
			s := gc.stream(size, 5)
			if _, ok := s.(splitter); !ok {
				continue
			}
			streams[fmt.Sprintf("%s/%d", gc.name, size)] = s
		}
	}
	for name, s := range streams {
		whole := collect(t, s)
		if got := s.(splitter).numEdges(); got != len(whole) {
			t.Fatalf("%s: numEdges %d, Edges emits %d", name, got, len(whole))
		}
		for _, parts := range []int{1, 2, 3, 7} {
			ps := s.(splitter).split(parts)
			if len(ps) != parts {
				t.Fatalf("%s: split(%d) gave %d parts", name, parts, len(ps))
			}
			var cat []Edge
			for k, p := range ps {
				if p.NumVertices() != s.NumVertices() {
					t.Fatalf("%s: part %d has %d vertices, want %d", name, k, p.NumVertices(), s.NumVertices())
				}
				first := collect(t, p)
				if again := collect(t, p); !slices.Equal(again, first) {
					t.Fatalf("%s: part %d/%d not re-runnable", name, k, parts)
				}
				cat = append(cat, first...)
			}
			if !slices.Equal(cat, whole) {
				t.Fatalf("%s: %d parts concatenated differ from the whole stream (%d vs %d edges)",
					name, parts, len(cat), len(whole))
			}
		}
	}
}

// TestUnsplittableStreams pins which streams build as one part: the
// preferential-attachment generators, whose draws per edge vary, and
// edge-list text.
func TestUnsplittableStreams(t *testing.T) {
	el, err := NewEdgeListStream(strings.NewReader("0 1\n1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]EdgeStream{
		"bitcoin":  BitcoinLikeStream(100, 1),
		"twitter":  TwitterLikeStream(100, 1),
		"edgelist": el,
	} {
		if _, ok := s.(splitter); ok {
			t.Errorf("%s stream claims it can split", name)
		}
		if w := buildWorkers(s, s.NumVertices()); w != 1 {
			t.Errorf("%s stream builds on %d workers, want 1", name, w)
		}
	}
}

// TestBuildPartsIdentical checks that the part count never shows in the
// result: every generator builds byte-identical arrays from 1, 2, 3 and
// 7 parts, and the one-part build matches the oracle.
func TestBuildPartsIdentical(t *testing.T) {
	for _, gc := range generatorCases() {
		t.Run(gc.name, func(t *testing.T) {
			s := gc.stream(2003, 3)
			want := materialize(t, s).Build(gc.dedup)
			for _, parts := range []int{1, 2, 3, 7} {
				got, err := buildStream(s, parts, gc.dedup)
				if err != nil {
					t.Fatalf("%d parts: %v", parts, err)
				}
				requireIdentical(t, want, got)
			}
		})
	}
}

// changingPart emits passes[0] on its first Edges call and passes[1]
// on every later one, breaking the re-runnability contract on purpose.
type changingPart struct {
	passes [2][]Edge
	calls  int
}

func (p *changingPart) NumVertices() int { return 4 }
func (p *changingPart) Edges(emit func(src, dst VID, w uint32) bool) error {
	edges := p.passes[min(p.calls, 1)]
	p.calls++
	for _, e := range edges {
		if !emit(e.Src, e.Dst, e.Weight) {
			return nil
		}
	}
	return nil
}

// changingStream is a splittable stream over fixed changingParts; each
// part counts its own calls, so concurrent parts share no state.
type changingStream []*changingPart

func (s changingStream) NumVertices() int { return 4 }
func (s changingStream) Edges(emit func(src, dst VID, w uint32) bool) error {
	if len(s) != 1 {
		panic("a multi-part changingStream is only built through its parts")
	}
	return s[0].Edges(emit)
}
func (s changingStream) numEdges() int {
	m := 0
	for _, p := range s {
		m += len(p.passes[0])
	}
	return m
}
func (s changingStream) split(parts int) []EdgeStream {
	if parts != len(s) {
		panic(fmt.Sprintf("changingStream has %d parts, split asked for %d", len(s), parts))
	}
	out := make([]EdgeStream, parts)
	for k, p := range s {
		out[k] = p
	}
	return out
}

// TestBuildStreamPartErrors checks that a multi-part stream that
// changes between passes gets the single-part errors, from the part at
// fault, and never writes outside that part's slots.
func TestBuildStreamPartErrors(t *testing.T) {
	same := func(edges ...Edge) *changingPart { return &changingPart{passes: [2][]Edge{edges, edges}} }
	for _, c := range []struct {
		name  string
		parts func() changingStream
		want  string
	}{
		{"overflow in a non-final part", func() changingStream {
			return changingStream{
				{passes: [2][]Edge{{{0, 1, 1}, {1, 2, 1}}, {{0, 1, 1}, {0, 2, 1}}}},
				same(Edge{0, 3, 1}),
				same(Edge{2, 3, 1}),
			}
		}, "stream changed between passes (vertex 0 overflow)"},
		{"underflow", func() changingStream {
			return changingStream{
				same(Edge{0, 1, 1}),
				{passes: [2][]Edge{{{0, 3, 1}, {1, 3, 1}}, {{0, 3, 1}}}},
				same(Edge{2, 3, 1}),
			}
		}, "stream changed between passes (2 edges, then 1)"},
		{"growth", func() changingStream {
			return changingStream{
				same(Edge{0, 1, 1}),
				{passes: [2][]Edge{{{0, 3, 1}}, {{0, 3, 1}, {1, 3, 1}}}},
				same(Edge{2, 3, 1}),
			}
		}, "stream changed between passes (edge 2)"},
		{"out-of-range dst in part 2", func() changingStream {
			return changingStream{
				same(Edge{0, 1, 1}, Edge{1, 2, 1}),
				same(Edge{0, 3, 1}),
				{passes: [2][]Edge{{{2, 3, 1}}, {{2, 9, 1}}}},
			}
		}, "stream changed between passes (edge 3)"},
		{"overflow into a vertex already filled", func() changingStream {
			// One part: vertex 1 fills its slot before vertex 0 spills
			// into it, and the edge total and every in-degree are
			// unchanged, so only the overflow check can catch it.
			return changingStream{
				{passes: [2][]Edge{{{0, 2, 1}, {1, 0, 1}, {2, 1, 1}}, {{1, 0, 1}, {0, 2, 1}, {0, 1, 1}}}},
			}
		}, "stream changed between passes (vertex 0 overflow)"},
		{"overflow that also changes an in-degree", func() changingStream {
			return changingStream{
				{passes: [2][]Edge{{{0, 1, 1}, {1, 2, 1}, {2, 0, 1}}, {{1, 2, 1}, {0, 1, 1}, {0, 2, 1}}}},
			}
		}, "stream changed between passes (vertex 0 overflow)"},
		{"out of range in pass 1", func() changingStream {
			return changingStream{
				same(Edge{0, 1, 1}),
				same(Edge{1, 7, 1}),
				same(Edge{2, 8, 1}),
			}
		}, "stream edge (1,7) out of range [0,4)"},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := c.parts()
			_, err := buildStream(s, len(s), false)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %v, want %q", err, c.want)
			}
		})
	}
}

// TestValidateCatchesInSrcSwap is the mutation check on Validate's
// transpose test: swapping two differing inSrc entries, within a run or
// across runs, must be caught.
func TestValidateCatchesInSrcSwap(t *testing.T) {
	g := LDBC(500, 3)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	inPtr, inSrc := g.inCSR()
	last := len(inSrc) - 1
	within := -1 // an index whose entry differs from its run neighbor
	for v := 0; v < g.NumVertices() && within < 0; v++ {
		for i := inPtr[v] + 1; i < inPtr[v+1]; i++ {
			if inSrc[i] != inSrc[i-1] {
				within = int(i)
				break
			}
		}
	}
	if within < 0 || inSrc[0] == inSrc[last] {
		t.Fatal("fixture graph lacks the swaps this test needs")
	}
	for _, swap := range [][2]int{{within - 1, within}, {0, last}} {
		i, j := swap[0], swap[1]
		inSrc[i], inSrc[j] = inSrc[j], inSrc[i]
		if err := g.Validate(); err == nil {
			t.Errorf("Validate accepted inSrc[%d] and inSrc[%d] swapped", i, j)
		}
		inSrc[i], inSrc[j] = inSrc[j], inSrc[i]
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("restored graph invalid: %v", err)
	}
}
