package graph_test

import (
	"sync"
	"testing"
	"unsafe"

	"graphpim/internal/gframe"
	"graphpim/internal/graph"
	"graphpim/internal/trace"
	"graphpim/internal/workloads"
)

// oracle builds the LDBC graph of the given size through the
// materializing Builder, whose in-CSR is built eagerly.
func oracle(t *testing.T, vertices int, seed uint64) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(vertices)
	if err := graph.LDBCStream(vertices, seed).Edges(func(src, dst graph.VID, w uint32) bool {
		b.AddWeightedEdge(src, dst, w)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return b.Build(true)
}

// TestInCSRFirstUseRace has 16 goroutines first-touch a fresh graph's
// in-CSR at once: every one must read the same single in-CSR, equal to
// the oracle's and to what Validate's transpose check accepts, and the
// built accessors must not allocate.
func TestInCSRFirstUseRace(t *testing.T) {
	const n, goroutines = 2000, 16
	g := graph.LDBC(n, 3)
	if graph.InBuilt(g) {
		t.Fatal("in-CSR built before first use")
	}
	got := make([][][]graph.VID, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for k := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			runs := make([][]graph.VID, n)
			for i := range n {
				v := graph.VID((i + k*n/goroutines) % n) // each starts elsewhere
				if k%2 == 0 && g.InDegree(v) != len(g.InNeighbors(v)) {
					t.Errorf("vertex %d: InDegree disagrees with InNeighbors", v)
				}
				runs[v] = g.InNeighbors(v)
			}
			got[k] = runs
		}()
	}
	close(start)
	wg.Wait()
	if !graph.InBuilt(g) {
		t.Fatal("in-CSR not built after first use")
	}
	inPtr, inSrc := graph.InCSR(g)
	want := oracle(t, n, 3)
	for k, runs := range got {
		for v, run := range runs {
			w := want.InNeighbors(graph.VID(v))
			if len(run) != len(w) {
				t.Fatalf("goroutine %d vertex %d: in-degree %d, oracle %d", k, v, len(run), len(w))
			}
			for i := range run {
				if run[i] != w[i] {
					t.Fatalf("goroutine %d vertex %d: in-run %v, oracle %v", k, v, run, w)
				}
			}
			if len(run) > 0 && unsafe.SliceData(run) != &inSrc[inPtr[v]] {
				t.Fatalf("goroutine %d vertex %d read an in-CSR other than the built one", k, v)
			}
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(100, func() { g.InNeighbors(7); g.InDegree(7) }); a != 0 {
		t.Fatalf("built InNeighbors/InDegree allocate %.1f times per call", a)
	}
}

// TestStreamedBFSLeavesInCSRUnbuilt: BFS pushes along out-edges only,
// so tracing it through the streaming pipeline never builds the
// in-CSR.
func TestStreamedBFSLeavesInCSRUnbuilt(t *testing.T) {
	g, err := graph.BuildStream(graph.LDBCStream(4096, 7), true)
	if err != nil {
		t.Fatal(err)
	}
	f, sw, err := trace.NewSpill(4)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fw := gframe.NewStreaming(g, 4, gframe.DefaultCostModel(), sw)
	workloads.NewBFS(0).Run(fw)
	if _, err := fw.FinalizeStream(); err != nil {
		t.Fatal(err)
	}
	if graph.InBuilt(g) {
		t.Fatal("streamed BFS built the in-CSR")
	}
}

// TestInCSRBuiltOnceByInEdgeReaders: PageRank pushes along out-edges
// like BFS and leaves the in-CSR unbuilt; BC pulls along in-edges, so
// its first run builds the in-CSR and a second run reads the same
// arrays rather than building them again.
func TestInCSRBuiltOnceByInEdgeReaders(t *testing.T) {
	g := graph.LDBC(2048, 5)
	run := func(w workloads.Workload) { w.Run(gframe.New(g, 4, gframe.DefaultCostModel())) }
	run(workloads.NewPRank(2))
	if graph.InBuilt(g) {
		t.Fatal("PRank built the in-CSR")
	}
	run(workloads.NewBC(2))
	if !graph.InBuilt(g) {
		t.Fatal("BC left the in-CSR unbuilt")
	}
	ptr, src := graph.InCSR(g)
	run(workloads.NewBC(2))
	if ptr2, src2 := graph.InCSR(g); unsafe.SliceData(ptr2) != unsafe.SliceData(ptr) ||
		unsafe.SliceData(src2) != unsafe.SliceData(src) {
		t.Fatal("a second BC run rebuilt the in-CSR")
	}
}
