package gframe

import (
	"testing"

	"graphpim/internal/graph"
	"graphpim/internal/memmap"
	"graphpim/internal/trace"
)

func tinyGraph() *graph.Graph {
	g, err := graph.BuildStream(graph.SliceStream(4, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1},
		{Src: 0, Dst: 2, Weight: 1},
		{Src: 1, Dst: 3, Weight: 1},
		{Src: 2, Dst: 3, Weight: 1},
	}), false)
	if err != nil {
		panic(err)
	}
	return g
}

func TestPropertyAllocationInPMR(t *testing.T) {
	f := New(tinyGraph(), 2, DefaultCostModel())
	p := f.AllocProperty("depth", 8)
	for v := graph.VID(0); v < 4; v++ {
		if !f.Space().InPMR(p.Addr(v)) {
			t.Fatalf("property element %d not in PMR", v)
		}
	}
	if f.Space().RegionOf(p.Addr(0)) != memmap.RegionProperty {
		t.Fatal("property address not classified as property region")
	}
}

func TestPropertyValues(t *testing.T) {
	f := New(tinyGraph(), 1, DefaultCostModel())
	p := f.AllocProperty("x", 8)
	p.Fill(7)
	if p.U64(2) != 7 {
		t.Fatal("Fill failed")
	}
	p.SetF64(1, 3.5)
	if p.F64(1) != 3.5 {
		t.Fatal("float round trip failed")
	}
	snap := p.Snapshot()
	p.SetU64(0, 99)
	if snap[0] == 99 {
		t.Fatal("snapshot aliases live values")
	}
}

func TestCASFunctionalSemantics(t *testing.T) {
	f := New(tinyGraph(), 1, DefaultCostModel())
	p := f.AllocProperty("depth", 8)
	p.Fill(^uint64(0))
	c := f.Thread(0)
	if !c.CAS(p, 1, ^uint64(0), 5) {
		t.Fatal("CAS on expected value failed")
	}
	if p.U64(1) != 5 {
		t.Fatal("CAS did not write")
	}
	if c.CAS(p, 1, ^uint64(0), 9) {
		t.Fatal("CAS on stale value succeeded")
	}
	if p.U64(1) != 5 {
		t.Fatal("failed CAS mutated memory")
	}
	tr := f.Trace()
	ats := tr.AtomicsByKind()
	if ats[trace.AtomicCAS] != 2 {
		t.Fatalf("expected 2 CAS records, got %v", ats)
	}
	// One success and one failure flagged.
	var fails int
	for _, in := range tr.Threads[0] {
		if in.Kind == trace.KindAtomic && in.CASFailed() {
			fails++
		}
	}
	if fails != 1 {
		t.Fatalf("%d failed-CAS flags, want 1", fails)
	}
}

func TestAtomicMinAndAdd(t *testing.T) {
	f := New(tinyGraph(), 1, DefaultCostModel())
	p := f.AllocProperty("dist", 8)
	p.Fill(100)
	c := f.Thread(0)
	if !c.AtomicMin(p, 0, 50) || p.U64(0) != 50 {
		t.Fatal("AtomicMin lower failed")
	}
	if c.AtomicMin(p, 0, 80) || p.U64(0) != 50 {
		t.Fatal("AtomicMin higher should not write")
	}
	c.AtomicAdd(p, 0, 5)
	c.AtomicAdd(p, 0, -10)
	if p.U64(0) != 45 {
		t.Fatalf("AtomicAdd chain = %d, want 45", p.U64(0))
	}
	if old := c.AtomicAddRet(p, 0, -1); old != 45 || p.U64(0) != 44 {
		t.Fatalf("AtomicAddRet old=%d new=%d", old, p.U64(0))
	}
	kinds := f.Trace().AtomicsByKind()
	if kinds[trace.AtomicMin] != 2 || kinds[trace.AtomicAdd] != 2 || kinds[trace.AtomicSub] != 1 {
		t.Fatalf("atomic kinds = %v", kinds)
	}
}

func TestAtomicAddF64(t *testing.T) {
	f := New(tinyGraph(), 1, DefaultCostModel())
	p := f.AllocProperty("rank", 8)
	p.FillF64(1.0)
	c := f.Thread(0)
	c.AtomicAddF64(p, 2, 0.5)
	if p.F64(2) != 1.5 {
		t.Fatalf("FP add = %v", p.F64(2))
	}
	if f.Trace().AtomicsByKind()[trace.AtomicFPAdd] != 1 {
		t.Fatal("FP atomic not recorded")
	}
}

func TestOutEdgesIteratesAllAndEmitsLoads(t *testing.T) {
	g := tinyGraph()
	f := New(g, 1, DefaultCostModel())
	c := f.Thread(0)
	var visited []graph.VID
	deg := c.BeginVertex(0)
	c.OutEdges(0, func(d graph.VID, w uint32) {
		visited = append(visited, d)
		if w != 1 {
			t.Fatalf("weight %d", w)
		}
	})
	if deg != 2 || len(visited) != 2 || visited[0] != 1 || visited[1] != 2 {
		t.Fatalf("deg=%d visited=%v", deg, visited)
	}
	tr := f.Trace()
	// 1 header load + 2 edge-object loads, all in the struct region.
	var structLoads, depLoads int
	for _, in := range tr.Threads[0] {
		if in.Kind == trace.KindLoad && in.Region == memmap.RegionStruct {
			structLoads++
			if in.DepPrev() {
				depLoads++
			}
		}
	}
	if structLoads != 3 {
		t.Fatalf("struct loads = %d, want 3", structLoads)
	}
	if depLoads != 2 {
		t.Fatalf("edge loads must be dependent (pointer chase): %d", depLoads)
	}
}

func TestInEdges(t *testing.T) {
	f := New(tinyGraph(), 1, DefaultCostModel())
	c := f.Thread(0)
	var srcs []graph.VID
	c.BeginVertexIn(3)
	c.InEdges(3, func(s graph.VID) { srcs = append(srcs, s) })
	if len(srcs) != 2 {
		t.Fatalf("in-edges of 3 = %v", srcs)
	}
}

func TestScatterLayouts(t *testing.T) {
	g := tinyGraph()
	scattered := New(g, 1, DefaultCostModel())
	dense := New(g, 1, CostModel{ScatteredStructure: false})
	// Dense layout: consecutive edge indices map to consecutive slots.
	if dense.scatter(1) != 1 || dense.scatter(2) != 2 {
		t.Fatal("dense layout not sequential")
	}
	// Scattered layout: consecutive indices land far apart (with
	// overwhelming probability for this hash).
	a, b := scattered.scatter(1), scattered.scatter(2)
	if a+1 == b {
		t.Fatal("scattered layout looks sequential")
	}
}

func TestChunkRanges(t *testing.T) {
	r := ChunkRanges(10, 3)
	if len(r) != 3 || r[0] != [2]int{0, 4} || r[1] != [2]int{4, 8} || r[2] != [2]int{8, 10} {
		t.Fatalf("ChunkRanges = %v", r)
	}
	// Degenerate: more threads than items.
	r = ChunkRanges(2, 4)
	total := 0
	for _, x := range r {
		if x[1] < x[0] {
			t.Fatalf("negative range %v", x)
		}
		total += x[1] - x[0]
	}
	if total != 2 {
		t.Fatalf("ranges cover %d items, want 2", total)
	}
}

func TestQueueOpsUseMetaRegion(t *testing.T) {
	f := New(tinyGraph(), 2, DefaultCostModel())
	c := f.Thread(1)
	c.QueuePush(0)
	c.QueuePop(0)
	for _, in := range f.Trace().Threads[1] {
		if (in.Kind == trace.KindLoad || in.Kind == trace.KindStore) && in.Region != memmap.RegionMeta {
			t.Fatalf("queue op touched %v region", in.Region)
		}
	}
}

func TestComplexUpdateEmitsHostOnlyAtomic(t *testing.T) {
	f := New(tinyGraph(), 1, DefaultCostModel())
	p := f.AllocProperty("state", 8)
	f.Thread(0).ComplexUpdate(p, 0, 2)
	kinds := f.Trace().AtomicsByKind()
	if kinds[trace.AtomicComplex] != 1 {
		t.Fatalf("complex atomic not recorded: %v", kinds)
	}
}

func TestBarrierAndTraceSnapshot(t *testing.T) {
	f := New(tinyGraph(), 3, DefaultCostModel())
	f.Thread(0).Compute(1)
	f.Barrier()
	tr := f.Trace()
	if tr.CountKind(trace.KindBarrier) != 3 {
		t.Fatal("barrier not emitted to all threads")
	}
}

func TestAllocPropertyValidation(t *testing.T) {
	f := New(tinyGraph(), 1, DefaultCostModel())
	defer func() {
		if recover() == nil {
			t.Fatal("oversized property element did not panic")
		}
	}()
	f.AllocProperty("bad", 32)
}
