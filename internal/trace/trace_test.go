package trace

import (
	"testing"
	"testing/quick"

	"graphpim/internal/hmcatomic"
	"graphpim/internal/memmap"
)

func newSpace() *memmap.AddressSpace { return memmap.NewAddressSpace() }

func TestBuilderThreads(t *testing.T) {
	b := NewBuilder(newSpace(), 4)
	if b.NumThreads() != 4 {
		t.Fatalf("NumThreads = %d", b.NumThreads())
	}
	b.Thread(2).Compute(3)
	tr := b.Build()
	if len(tr.Threads[2]) != 1 || tr.Threads[2][0].N != 3 {
		t.Fatalf("thread 2 stream = %+v", tr.Threads[2])
	}
	if len(tr.Threads[0]) != 0 {
		t.Fatal("thread 0 should be empty")
	}
}

func TestBuilderPanicsOnBadThreadCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBuilder(space, 0) did not panic")
		}
	}()
	NewBuilder(newSpace(), 0)
}

func TestComputeSplitsLargeBatches(t *testing.T) {
	b := NewBuilder(newSpace(), 1)
	b.Thread(0).Compute(200000)
	tr := b.Build()
	if got := tr.TotalInstructions(); got != 200000 {
		t.Fatalf("TotalInstructions = %d", got)
	}
	for _, in := range tr.Threads[0] {
		if in.N == 0 {
			t.Fatal("zero-length compute batch emitted")
		}
	}
}

func TestRegionTagging(t *testing.T) {
	sp := newSpace()
	meta := sp.AllocMeta(64)
	str := sp.AllocStruct(64)
	prop := sp.PMRMalloc(64)
	b := NewBuilder(sp, 1)
	e := b.Thread(0)
	e.Load(meta, 8, false)
	e.Load(str, 8, false)
	e.Atomic(AtomicCAS, prop, 8, false, true, false)
	tr := b.Build()
	regs := []memmap.Region{memmap.RegionMeta, memmap.RegionStruct, memmap.RegionProperty}
	for i, want := range regs {
		if tr.Threads[0][i].Region != want {
			t.Errorf("instr %d region = %v, want %v", i, tr.Threads[0][i].Region, want)
		}
	}
}

func TestFlags(t *testing.T) {
	sp := newSpace()
	a := sp.AllocProperty(64)
	b := NewBuilder(sp, 1)
	e := b.Thread(0)
	e.Atomic(AtomicCAS, a, 8, false, true, true)
	e.Load(a, 8, true)
	tr := b.Build()
	at, ld := tr.Threads[0][0], tr.Threads[0][1]
	if !at.RetUsed() || !at.CASFailed() || at.DepPrev() {
		t.Fatalf("atomic flags wrong: %08b", at.Flags)
	}
	if !ld.DepPrev() || ld.RetUsed() {
		t.Fatalf("load flags wrong: %08b", ld.Flags)
	}
}

func TestBarrierAppendsToAllThreads(t *testing.T) {
	b := NewBuilder(newSpace(), 3)
	b.Thread(0).Compute(1)
	b.Barrier()
	tr := b.Build()
	for i := 0; i < 3; i++ {
		last := tr.Threads[i][len(tr.Threads[i])-1]
		if last.Kind != KindBarrier {
			t.Fatalf("thread %d missing barrier", i)
		}
	}
	if tr.CountKind(KindBarrier) != 3 {
		t.Fatalf("barrier count = %d", tr.CountKind(KindBarrier))
	}
}

func TestBuildSnapshots(t *testing.T) {
	b := NewBuilder(newSpace(), 1)
	b.Thread(0).Compute(1)
	tr1 := b.Build()
	b.Thread(0).Compute(1)
	if len(tr1.Threads[0]) != 1 {
		t.Fatal("Build did not snapshot; later emission mutated earlier trace")
	}
}

func TestPIMOpMapping(t *testing.T) {
	cases := []struct {
		host HostAtomic
		ext  bool
		op   hmcatomic.Op
		ok   bool
	}{
		{AtomicCAS, false, hmcatomic.CasEQ8, true},
		{AtomicAdd, false, hmcatomic.TwoAdd8, true},
		{AtomicSub, false, hmcatomic.TwoAdd8, true},
		{AtomicSwap, false, hmcatomic.Swap16, true},
		{AtomicMin, false, hmcatomic.CasLT16, true},
		{AtomicMax, false, hmcatomic.CasGT16, true},
		{AtomicFPAdd, false, 0, false},
		{AtomicFPAdd, true, hmcatomic.ExtFPAdd64, true},
		{AtomicComplex, true, 0, false},
		{AtomicNone, true, 0, false},
	}
	for _, c := range cases {
		op, ok := c.host.PIMOp(c.ext)
		if ok != c.ok || (ok && op != c.op) {
			t.Errorf("PIMOp(%v, ext=%v) = %v,%v want %v,%v", c.host, c.ext, op, ok, c.op, c.ok)
		}
	}
}

func TestStripSource(t *testing.T) {
	sp := newSpace()
	a := sp.AllocProperty(64)
	b := NewBuilder(sp, 2)
	e := b.Thread(0)
	e.Compute(2)
	e.Atomic(AtomicCAS, a, 8, false, true, true)
	e.Compute(1)
	b.Thread(1).Atomic(AtomicAdd, a, 8, false, false, false)
	src := b.Build()
	src.Freeze()
	stripped := StripSource(src)
	tr := &Trace{Threads: make([][]Instr, stripped.NumThreads())}
	for th := range tr.Threads {
		tr.Threads[th] = drain(stripped.Cursor(th))
		if got, want := stripped.Cursor(th).Counts(), CountRecords(tr.Threads[th]); got != want {
			t.Fatalf("thread %d: Counts %+v, records count %+v", th, got, want)
		}
	}

	if tr.CountKind(KindAtomic) != 0 {
		t.Fatal("atomics remain after StripSource")
	}
	// The view reads a frozen trace without writing to it.
	if src.CountKind(KindAtomic) != 2 {
		t.Fatal("StripSource modified its source")
	}
	// Each atomic becomes load+store, preserving address and region.
	th0 := tr.Threads[0]
	if th0[1].Kind != KindLoad || th0[2].Kind != KindStore {
		t.Fatalf("replacement shape wrong: %v %v", th0[1].Kind, th0[2].Kind)
	}
	if th0[1].Addr != a || th0[2].Addr != a {
		t.Fatal("replacement lost the address")
	}
	if !th0[2].DepPrev() {
		t.Fatal("replacement store must depend on the load")
	}
	if th0[1].CASFailed() || th0[1].RetUsed() {
		t.Fatal("replacement load must not inherit atomic flags")
	}
	// Instruction count grows by exactly one per atomic.
	if got := tr.TotalInstructions(); got != 2+2+1+2 {
		t.Fatalf("TotalInstructions after strip = %d", got)
	}
}

func TestTraceCountersProperty(t *testing.T) {
	// Property: TotalInstructions equals the sum of compute batch sizes
	// plus non-compute, non-barrier records.
	f := func(batches []uint16, nLoads, nAtomics uint8) bool {
		sp := newSpace()
		addr := sp.AllocProperty(1 << 20)
		b := NewBuilder(sp, 2)
		var want uint64
		e := b.Thread(0)
		for _, n := range batches {
			if n == 0 {
				continue
			}
			e.Compute(int(n))
			want += uint64(n)
		}
		for i := 0; i < int(nLoads); i++ {
			e.Load(addr+memmap.Addr(i*8), 8, false)
			want++
		}
		for i := 0; i < int(nAtomics); i++ {
			b.Thread(1).Atomic(AtomicAdd, addr, 8, false, false, false)
			want++
		}
		b.Barrier()
		return b.Build().TotalInstructions() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAtomicsByKind(t *testing.T) {
	sp := newSpace()
	a := sp.AllocProperty(64)
	b := NewBuilder(sp, 1)
	e := b.Thread(0)
	e.Atomic(AtomicCAS, a, 8, false, true, false)
	e.Atomic(AtomicCAS, a, 8, false, true, false)
	e.Atomic(AtomicAdd, a, 8, false, false, false)
	m := b.Build().AtomicsByKind()
	if m[AtomicCAS] != 2 || m[AtomicAdd] != 1 {
		t.Fatalf("AtomicsByKind = %v", m)
	}
}

func TestKindAndAtomicStrings(t *testing.T) {
	for k := KindCompute; k <= KindBarrier; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has empty string", k)
		}
	}
	for a := AtomicNone; a <= AtomicMax; a++ {
		if a.String() == "" {
			t.Errorf("atomic %d has empty string", a)
		}
	}
}

func TestComputeCoalescing(t *testing.T) {
	b := NewBuilder(newSpace(), 1)
	e := b.Thread(0)
	e.Compute(10)
	e.Compute(20)
	e.Compute(30)
	tr := b.Build()
	if len(tr.Threads[0]) != 1 || tr.Threads[0][0].N != 60 {
		t.Fatalf("adjacent computes not coalesced: %+v", tr.Threads[0])
	}
	// Flagged compute batches must not merge into the previous record.
	e.DependentCompute(5)
	tr = b.Build()
	if len(tr.Threads[0]) < 2 {
		t.Fatal("dependent compute merged into a flag-free batch")
	}
	if !tr.Threads[0][1].DepPrev() {
		t.Fatal("dependent batch lost its flag")
	}
}

func TestComputeCoalescingRespectsCap(t *testing.T) {
	b := NewBuilder(newSpace(), 1)
	e := b.Thread(0)
	e.Compute(65000)
	e.Compute(65000)
	tr := b.Build()
	if got := tr.TotalInstructions(); got != 130000 {
		t.Fatalf("TotalInstructions = %d", got)
	}
	for _, in := range tr.Threads[0] {
		if in.N == 0 {
			t.Fatal("zero-length batch after coalescing")
		}
	}
}

func TestTraceFreeze(t *testing.T) {
	tr := &Trace{Threads: [][]Instr{{{Kind: KindAtomic, Atomic: AtomicAdd}}}}
	if tr.Frozen() {
		t.Fatal("new trace must not be frozen")
	}
	tr.Freeze()
	tr.Freeze() // idempotent
	if !tr.Frozen() {
		t.Fatal("Frozen() false after Freeze")
	}
}
