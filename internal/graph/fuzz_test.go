package graph

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadEdgeList hardens the text parser: any input must produce either
// an error or a graph passing Validate.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2 5\n")
	f.Add("# vertices: 8\n0 7\n")
	f.Add("")
	f.Add("x y\n")
	f.Add("0 1 2 3 4\n")
	f.Add("4294967295 0\n")
	f.Fuzz(func(t *testing.T, in string) {
		g, err := ReadEdgeList(strings.NewReader(in), false)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("parsed graph invalid: %v", err)
		}
		// Serializing and reparsing must preserve counts. bytes.Buffer is
		// deliberately not a Seeker, so this leg also exerces the
		// buffered-fallback path of NewEdgeListStream.
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		again, err := ReadEdgeList(&buf, false)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if again.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip edges %d != %d", again.NumEdges(), g.NumEdges())
		}
	})
}

// FuzzBuildStream is the randomized arm of the equivalence gate: any
// edge multiset fed through both the streaming build and the
// materializing oracle Builder must yield identical CSR arrays, under
// both dedup settings. The stream is cut into 1 + parts%16 parts, so
// empty parts and more parts than edges occur. Edges are decoded from
// raw bytes, 7 per edge: 2+2 bytes of vertex id (mod n), 3 bytes of
// weight.
func FuzzBuildStream(f *testing.F) {
	f.Add(uint16(4), uint8(0), []byte{0, 1, 0, 2, 0, 0, 5})
	f.Add(uint16(2), uint8(1), []byte{0, 0, 0, 1, 1, 0, 0, 0, 1, 0, 0, 2, 0, 0})
	f.Add(uint16(100), uint8(2), []byte("some random bytes that decode to edges......"))
	f.Add(uint16(1), uint8(6), []byte{})
	f.Fuzz(func(t *testing.T, nv uint16, parts uint8, raw []byte) {
		n := int(nv)
		if n < 1 {
			n = 1
		}
		var edges []Edge
		for i := 0; i+7 <= len(raw); i += 7 {
			src := VID(int(uint32(raw[i])<<8|uint32(raw[i+1])) % n)
			dst := VID(int(uint32(raw[i+2])<<8|uint32(raw[i+3])) % n)
			w := uint32(raw[i+4])<<16 | uint32(raw[i+5])<<8 | uint32(raw[i+6])
			edges = append(edges, Edge{src, dst, w})
		}
		for _, dedup := range []bool{false, true} {
			b := NewBuilder(n)
			for _, e := range edges {
				b.AddWeightedEdge(e.Src, e.Dst, e.Weight)
			}
			want := b.Build(dedup)
			got, err := buildStream(SliceStream(n, edges), 1+int(parts)%16, dedup)
			if err != nil {
				t.Fatalf("BuildStream(dedup=%v): %v", dedup, err)
			}
			requireIdentical(t, want, got)
			if err := got.Validate(); err != nil {
				t.Fatalf("Validate(dedup=%v): %v", dedup, err)
			}
		}
	})
}
