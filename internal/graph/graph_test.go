package graph

import (
	"testing"
	"testing/quick"

	"graphpim/internal/sim"
)

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	g := b.Build(false)
	if g.NumVertices() != 4 || g.NumEdges() != 4 {
		t.Fatalf("V=%d E=%d", g.NumVertices(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := g.OutNeighbors(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("OutNeighbors(0) = %v", got)
	}
	if g.OutDegree(1) != 0 || g.InDegree(0) != 1 || g.InDegree(3) != 1 {
		t.Fatal("degree bookkeeping wrong")
	}
	if got := g.InNeighbors(3); len(got) != 1 || got[0] != 2 {
		t.Fatalf("InNeighbors(3) = %v", got)
	}
}

func TestDedup(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	if g := b.Build(true); g.NumEdges() != 2 {
		t.Fatalf("dedup kept %d edges", g.NumEdges())
	}
	b2 := NewBuilder(3)
	b2.AddEdge(0, 1)
	b2.AddEdge(0, 1)
	if g := b2.Build(false); g.NumEdges() != 2 {
		t.Fatalf("no-dedup dropped edges: %d", g.NumEdges())
	}
}

func TestWeightsParallelToNeighbors(t *testing.T) {
	b := NewBuilder(3)
	b.AddWeightedEdge(0, 2, 7)
	b.AddWeightedEdge(0, 1, 3)
	g := b.Build(false)
	nb, w := g.OutNeighbors(0), g.OutWeights(0)
	if len(nb) != 2 || nb[0] != 1 || w[0] != 3 || nb[1] != 2 || w[1] != 7 {
		t.Fatalf("neighbors %v weights %v", nb, w)
	}
}

func TestBuilderPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NewBuilder(0) did not panic")
			}
		}()
		NewBuilder(0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("out-of-range edge did not panic")
			}
		}()
		NewBuilder(2).AddEdge(0, 5)
	}()
}

// Property: for any random edge set, in-degree sum == out-degree sum ==
// edge count and every adjacency is consistent between the two CSRs.
func TestCSRConsistencyProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := sim.NewRand(seed)
		n := 2 + r.Intn(60)
		b := NewBuilder(n)
		m := r.Intn(300)
		for i := 0; i < m; i++ {
			b.AddEdge(VID(r.Intn(n)), VID(r.Intn(n)))
		}
		g := b.Build(false)
		if g.Validate() != nil {
			return false
		}
		var outSum, inSum int
		for v := 0; v < n; v++ {
			outSum += g.OutDegree(VID(v))
			inSum += g.InDegree(VID(v))
		}
		if outSum != m || inSum != m {
			return false
		}
		// Every out-edge (u,v) appears as an in-edge of v.
		inCount := map[[2]VID]int{}
		for v := 0; v < n; v++ {
			for _, u := range g.InNeighbors(VID(v)) {
				inCount[[2]VID{u, VID(v)}]++
			}
		}
		for u := 0; u < n; u++ {
			for _, v := range g.OutNeighbors(VID(u)) {
				key := [2]VID{VID(u), v}
				if inCount[key] == 0 {
					return false
				}
				inCount[key]--
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestLDBCShape(t *testing.T) {
	g := LDBC(4096, 42)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	avg := float64(g.NumEdges()) / float64(g.NumVertices())
	// Dedup trims some duplicates; the average degree should stay near
	// Table VI's ~29.
	if avg < 15 || avg > 29.5 {
		t.Fatalf("LDBC average degree %.1f far from ~29", avg)
	}
	// Scale-free shape: max degree far above average.
	maxDeg := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.OutDegree(VID(v)); d > maxDeg {
			maxDeg = d
		}
	}
	if float64(maxDeg) < 5*avg {
		t.Fatalf("max degree %d not heavy-tailed (avg %.1f)", maxDeg, avg)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a, b := LDBC(1024, 7), LDBC(1024, 7)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("LDBC not deterministic")
	}
	for v := 0; v < 1024; v++ {
		an, bn := a.OutNeighbors(VID(v)), b.OutNeighbors(VID(v))
		if len(an) != len(bn) {
			t.Fatalf("vertex %d degree differs", v)
		}
		for i := range an {
			if an[i] != bn[i] {
				t.Fatalf("vertex %d neighbor %d differs", v, i)
			}
		}
	}
	c := LDBC(1024, 8)
	if c.NumEdges() == a.NumEdges() {
		same := true
		for v := 0; v < 1024 && same; v++ {
			cn, an := c.OutNeighbors(VID(v)), a.OutNeighbors(VID(v))
			if len(cn) != len(an) {
				same = false
			}
		}
		if same {
			t.Fatal("different seeds produced identical graphs")
		}
	}
}

func TestErdosRenyi(t *testing.T) {
	g := ErdosRenyi(2048, 8, 3)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	avg := float64(g.NumEdges()) / 2048
	if avg < 6 || avg > 8.5 {
		t.Fatalf("ER average degree %.1f, want ~8", avg)
	}
}

func TestBitcoinLikeShape(t *testing.T) {
	g := BitcoinLike(10000, 11)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	avg := float64(g.NumEdges()) / float64(g.NumVertices())
	if avg < 2 || avg > 3.5 {
		t.Fatalf("bitcoin-like average degree %.2f, want ~2.5", avg)
	}
	// Hubs must exist: some vertex touches far more than average edges.
	maxDeg := 0
	for v := 0; v < g.NumVertices(); v++ {
		d := g.OutDegree(VID(v)) + g.InDegree(VID(v))
		if d > maxDeg {
			maxDeg = d
		}
	}
	if float64(maxDeg) < 20*avg {
		t.Fatalf("no hubs: max total degree %d (avg %.1f)", maxDeg, avg)
	}
}

func TestTwitterLikeShape(t *testing.T) {
	g := TwitterLike(10000, 13)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	avg := float64(g.NumEdges()) / float64(g.NumVertices())
	if avg < 5 || avg > 8 {
		t.Fatalf("twitter-like average degree %.2f, want ~7.7", avg)
	}
	// In-degree must be much more skewed than out-degree (celebrities).
	maxIn := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.InDegree(VID(v)); d > maxIn {
			maxIn = d
		}
	}
	if float64(maxIn) < 30*avg {
		t.Fatalf("in-degree not skewed: max %d", maxIn)
	}
}

func TestGeneratorPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"rmat-small":    func() { RMAT(1, 4, 0.5, 0.2, 0.2, 1) },
		"rmat-badprobs": func() { RMAT(16, 4, 0.8, 0.2, 0.2, 1) },
		"er-small":      func() { ErdosRenyi(1, 4, 1) },
		"bitcoin-small": func() { BitcoinLike(4, 1) },
		"twitter-small": func() { TwitterLike(4, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestStructureBytes(t *testing.T) {
	g := LDBC(1024, 5)
	if g.StructureBytes() == 0 {
		t.Fatal("zero structure footprint")
	}
	big := LDBC(4096, 5)
	if big.StructureBytes() <= g.StructureBytes() {
		t.Fatal("footprint does not grow with graph size")
	}
	// The in-CSR counts whether or not it is built yet, and reading the
	// footprint does not build it. The values were recorded when every
	// graph built its in-CSR eagerly.
	for _, c := range []struct {
		name string
		g    *Graph
		want uint64
	}{
		{"ldbc", LDBC(1000, 1), 332216},
		{"twitter", TwitterLike(1000, 1), 77148},
		{"bitcoin", BitcoinLike(1000, 1), 46304},
	} {
		before := c.g.StructureBytes()
		if InBuilt(c.g) {
			t.Fatalf("%s: StructureBytes built the in-CSR", c.name)
		}
		c.g.InNeighbors(0)
		if after := c.g.StructureBytes(); before != c.want || after != c.want {
			t.Errorf("%s: StructureBytes %d before first use, %d after, want %d", c.name, before, after, c.want)
		}
	}
}

func TestLDBCSizesTable(t *testing.T) {
	if len(LDBCSizes) != 4 {
		t.Fatalf("Table VI has 4 datasets, got %d", len(LDBCSizes))
	}
	if LDBCSizes[0].Vertices != 1000 || LDBCSizes[3].Vertices != 1000000 {
		t.Fatal("Table VI sizes wrong")
	}
}

// TestBuildNonDestructive is a regression test for a Build that sorted
// (and deduped) the builder's own edge slice in place: a second Build —
// or NumEdges, or AddEdge-then-rebuild — observed a reordered or
// truncated edge list.
func TestBuildNonDestructive(t *testing.T) {
	b := NewBuilder(4)
	// Deliberately unsorted, with duplicates.
	b.AddWeightedEdge(3, 0, 9)
	b.AddEdge(0, 1)
	b.AddEdge(2, 1)
	b.AddEdge(0, 1)
	b.AddEdge(1, 3)
	if b.NumEdges() != 5 {
		t.Fatalf("NumEdges = %d before Build", b.NumEdges())
	}

	g1 := b.Build(true)
	if b.NumEdges() != 5 {
		t.Fatalf("Build(dedup) changed NumEdges to %d", b.NumEdges())
	}
	g2 := b.Build(true)
	if g1.NumEdges() != 4 || g2.NumEdges() != g1.NumEdges() {
		t.Fatalf("double Build: %d then %d edges", g1.NumEdges(), g2.NumEdges())
	}
	for v := 0; v < 4; v++ {
		a, c := g1.OutNeighbors(VID(v)), g2.OutNeighbors(VID(v))
		if len(a) != len(c) {
			t.Fatalf("vertex %d degree drifted: %d != %d", v, len(a), len(c))
		}
		for i := range a {
			if a[i] != c[i] {
				t.Fatalf("vertex %d edge %d drifted across Builds", v, i)
			}
		}
	}

	// Build without dedup after a deduped Build must still see all 5
	// edges — the duplicate was dropped from a copy, not the builder.
	if g := b.Build(false); g.NumEdges() != 5 {
		t.Fatalf("Build(false) after Build(true) lost edges: %d", g.NumEdges())
	}

	// The builder stays usable for incremental growth.
	b.AddEdge(3, 2)
	if g := b.Build(false); g.NumEdges() != 6 {
		t.Fatalf("AddEdge after Build: %d edges", g.NumEdges())
	}
}
