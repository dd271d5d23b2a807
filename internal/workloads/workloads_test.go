package workloads

import (
	"math"
	"testing"

	"graphpim/internal/gframe"
	"graphpim/internal/graph"
	"graphpim/internal/trace"
)

func testGraph() *graph.Graph { return graph.LDBC(512, 99) }

func runOn(t *testing.T, w Workload, g *graph.Graph, threads int) (Result, *gframe.Framework) {
	t.Helper()
	f := gframe.New(g, threads, gframe.DefaultCostModel())
	res := w.Run(f)
	return res, f
}

func TestBFSMatchesReference(t *testing.T) {
	g := testGraph()
	res, _ := runOn(t, NewBFS(0), g, 4)
	got := res.Output.(BFSOutput).Depth
	want := RefBFS(g, 0)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("depth[%d] = %d, want %d", v, got[v], want[v])
		}
	}
	if res.EdgesVisited == 0 {
		t.Fatal("no edges visited")
	}
}

func TestBFSSingleThreadMatchesMultiThread(t *testing.T) {
	g := testGraph()
	a, _ := runOn(t, NewBFS(0), g, 1)
	b, _ := runOn(t, NewBFS(0), g, 8)
	da, db := a.Output.(BFSOutput).Depth, b.Output.(BFSOutput).Depth
	for v := range da {
		if da[v] != db[v] {
			t.Fatalf("thread-count-dependent depth at %d: %d vs %d", v, da[v], db[v])
		}
	}
}

func TestDFSVisitsEveryReachableVertex(t *testing.T) {
	g := testGraph()
	res, _ := runOn(t, NewDFS(), g, 4)
	owner := res.Output.(DFSOutput).Owner
	for v, o := range owner {
		if o == Infinity {
			t.Fatalf("vertex %d never claimed", v)
		}
		if o >= 4 {
			t.Fatalf("vertex %d claimed by bogus thread %d", v, o)
		}
	}
}

func TestDCMatchesReference(t *testing.T) {
	g := testGraph()
	res, _ := runOn(t, NewDC(), g, 4)
	got := res.Output.(DCOutput).Centrality
	want := RefDC(g)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("dc[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}

func TestSSSPMatchesDijkstra(t *testing.T) {
	g := testGraph()
	res, _ := runOn(t, NewSSSP(0), g, 4)
	got := res.Output.(SSSPOutput).Dist
	want := RefSSSP(g, 0)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}

func TestKCoreMatchesPeeling(t *testing.T) {
	g := testGraph()
	res, _ := runOn(t, NewKCore(8), g, 4)
	got := res.Output.(KCoreOutput).CoreNumber
	want := RefKCore(g, 8)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("core[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}

func TestCCompMatchesUnionFind(t *testing.T) {
	g := testGraph()
	res, _ := runOn(t, NewCComp(), g, 4)
	got := res.Output.(CCompOutput).Label
	want := RefCComp(g)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("label[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}

func TestPRankMatchesReference(t *testing.T) {
	g := testGraph()
	res, _ := runOn(t, NewPRank(3), g, 4)
	got := res.Output.(PRankOutput).Rank
	want := RefPRank(g, 3)
	var sum float64
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-9 {
			t.Fatalf("rank[%d] = %v, want %v", v, got[v], want[v])
		}
		sum += got[v]
	}
	if sum < 0.5 || sum > 1.01 {
		t.Fatalf("rank mass %v implausible", sum)
	}
}

func TestTCMatchesReference(t *testing.T) {
	g := testGraph()
	res, _ := runOn(t, NewTC(), g, 4)
	out := res.Output.(TCOutput)
	if want := RefTC(g); out.Total != want {
		t.Fatalf("triangles = %d, want %d", out.Total, want)
	}
	var perVertex uint64
	for _, c := range out.PerVertex {
		perVertex += c
	}
	if perVertex != out.Total {
		t.Fatalf("per-vertex sum %d != total %d", perVertex, out.Total)
	}
}

func TestBCProducesPositiveCentrality(t *testing.T) {
	g := testGraph()
	res, _ := runOn(t, NewBC(2), g, 4)
	scores := res.Output.(BCOutput).Centrality
	var positive int
	for _, s := range scores {
		if s < 0 {
			t.Fatal("negative centrality")
		}
		if s > 0 {
			positive++
		}
	}
	if positive == 0 {
		t.Fatal("no vertex has positive centrality on a connected-ish graph")
	}
}

// TestBCMatchesReference pins BC's centrality to a sequential Brandes
// over the same sources. Per-thread frontiers reorder the floating-point
// sums, so scores agree to 1e-9 relative, not bit for bit.
func TestBCMatchesReference(t *testing.T) {
	g := testGraph()
	want := RefBC(g, 4)
	var positive int
	for _, s := range want {
		if s > 0 {
			positive++
		}
	}
	if positive == 0 {
		t.Fatal("reference centrality is zero everywhere")
	}
	for _, threads := range []int{1, 4, 16} {
		res, _ := runOn(t, NewBC(4), g, threads)
		got := res.Output.(BCOutput).Centrality
		for v := range want {
			if math.Abs(got[v]-want[v]) > 1e-9*math.Abs(want[v]) {
				t.Fatalf("%d threads: centrality[%d] = %v, want %v", threads, v, got[v], want[v])
			}
		}
	}
}

func TestGibbsConverges(t *testing.T) {
	g := testGraph()
	res, _ := runOn(t, NewGibbs(2), g, 4)
	out := res.Output.(GibbsOutput)
	for _, s := range out.State {
		if s > 1 {
			t.Fatalf("non-binary state %d", s)
		}
	}
}

func TestDynamicWorkloadsRun(t *testing.T) {
	g := testGraph()
	for _, w := range []Workload{NewGCons(), NewGUp(), NewTMorph()} {
		res, f := runOn(t, w, g, 4)
		if res.Output.(DynOutput).Ops == 0 {
			t.Fatalf("%s performed no operations", w.Info().Name)
		}
		// Dynamic workloads must emit only host-complex atomics.
		kinds := f.Trace().AtomicsByKind()
		for k := range kinds {
			if k != trace.AtomicComplex {
				t.Fatalf("%s emitted offloadable atomic %v", w.Info().Name, k)
			}
		}
	}
}

func TestTableIIIApplicability(t *testing.T) {
	want := map[string]struct {
		applicable bool
		needsFP    bool
	}{
		"BFS": {true, false}, "DFS": {true, false}, "DC": {true, false},
		"BC": {false, true}, "SSSP": {true, false}, "kCore": {true, false},
		"CComp": {true, false}, "PRank": {false, true},
		"GCons": {false, false}, "GUp": {false, false}, "TMorph": {false, false},
		"TC": {true, false}, "Gibbs": {false, false},
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("suite has %d workloads, want %d", len(all), len(want))
	}
	for _, w := range all {
		info := w.Info()
		exp, ok := want[info.Name]
		if !ok {
			t.Fatalf("unexpected workload %s", info.Name)
		}
		if info.Applicable != exp.applicable || info.NeedsFPExtension != exp.needsFP {
			t.Errorf("%s: applicable=%v needsFP=%v, want %v/%v",
				info.Name, info.Applicable, info.NeedsFPExtension, exp.applicable, exp.needsFP)
		}
		if !info.Applicable && !info.NeedsFPExtension && info.MissingOp == "" {
			t.Errorf("%s: inapplicable without a missing-op annotation", info.Name)
		}
		if info.ApplicableWith(true) != (info.Applicable || info.NeedsFPExtension) {
			t.Errorf("%s: ApplicableWith(true) inconsistent", info.Name)
		}
	}
}

func TestTableIIOffloadTargets(t *testing.T) {
	want := map[string][2]string{
		"BFS":   {"lock cmpxchg", "CAS if equal"},
		"DC":    {"lock addw", "Signed add"},
		"SSSP":  {"lock cmpxchg", "CAS if equal"},
		"kCore": {"lock subw", "Signed add"},
		"CComp": {"lock cmpxchg", "CAS if equal"},
		"TC":    {"lock add", "Signed add"},
	}
	for name, pair := range want {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if w.Info().OffloadTarget != pair[0] || w.Info().PIMAtomic != pair[1] {
			t.Errorf("%s: %q -> %q, want %q -> %q", name,
				w.Info().OffloadTarget, w.Info().PIMAtomic, pair[0], pair[1])
		}
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("BFS"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown workload did not error")
	}
}

func TestEvalSetContents(t *testing.T) {
	names := Names(EvalSet())
	want := []string{"BFS", "CComp", "DC", "kCore", "SSSP", "TC", "BC", "PRank"}
	if len(names) != len(want) {
		t.Fatalf("eval set = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("eval set = %v, want %v", names, want)
		}
	}
}

func TestFraudDetection(t *testing.T) {
	g := graph.BitcoinLike(2000, 5)
	res, _ := runOn(t, NewFraudDetection(3), g, 4)
	out := res.Output.(FDOutput)
	if len(out.Flagged) == 0 {
		t.Fatal("no accounts flagged on a hub-heavy transaction graph")
	}
	if len(out.Component) != g.NumVertices() {
		t.Fatal("component labels missing")
	}
	// Components must match union-find on the same graph.
	want := RefCComp(g)
	for v := range want {
		if out.Component[v] != want[v] {
			t.Fatalf("FD component[%d] = %d, want %d", v, out.Component[v], want[v])
		}
	}
}

func TestRecommender(t *testing.T) {
	g := graph.TwitterLike(2000, 5)
	res, _ := runOn(t, NewRecommender(16), g, 4)
	out := res.Output.(RSOutput)
	if len(out.TopItems) == 0 {
		t.Fatal("no recommendations produced")
	}
	// Top items must be sorted by similarity mass.
	for i := 1; i < len(out.TopItems); i++ {
		if out.Similarity[out.TopItems[i-1]] < out.Similarity[out.TopItems[i]] {
			t.Fatal("top items not sorted by similarity")
		}
	}
}

func TestWorkloadTracesHaveExpectedAtomics(t *testing.T) {
	g := testGraph()
	cases := map[string]trace.HostAtomic{
		"BFS":   trace.AtomicCAS,
		"DC":    trace.AtomicAdd,
		"SSSP":  trace.AtomicMin,
		"CComp": trace.AtomicMin,
		"PRank": trace.AtomicFPAdd,
		"TC":    trace.AtomicAdd,
	}
	for name, kind := range cases {
		w, _ := ByName(name)
		_, f := runOn(t, w, g, 2)
		kinds := f.Trace().AtomicsByKind()
		if kinds[kind] == 0 {
			t.Errorf("%s emitted no %v atomics: %v", name, kind, kinds)
		}
	}
}

func TestKCoreAtomicDensityIsLow(t *testing.T) {
	// The paper: kCore spends its time checking inactive vertices, so
	// its atomic count is small relative to total instructions.
	g := testGraph()
	w, _ := ByName("kCore")
	_, f := runOn(t, w, g, 2)
	tr := f.Trace()
	atomics := tr.CountKind(trace.KindAtomic)
	total := tr.TotalInstructions()
	if ratio := float64(atomics) / float64(total); ratio > 0.1 {
		t.Fatalf("kCore atomic density %.3f too high", ratio)
	}
}

func TestBFSAtomicDensityIsHigh(t *testing.T) {
	g := testGraph()
	w, _ := ByName("BFS")
	_, f := runOn(t, w, g, 2)
	tr := f.Trace()
	atomics := tr.CountKind(trace.KindAtomic)
	if atomics == 0 {
		t.Fatal("no atomics")
	}
	// Roughly one CAS per visited edge.
	if ratio := float64(atomics) / float64(tr.CountKind(trace.KindLoad)); ratio < 0.2 {
		t.Fatalf("BFS atomic-to-load ratio %.3f too low", ratio)
	}
}
