package machine

import (
	"math"
	"testing"

	"graphpim/internal/memmap"
	"graphpim/internal/sim"
	"graphpim/internal/trace"
)

// synthWorkload builds a BFS-like synthetic trace: per thread, a stream of
// meta accesses, sequential structure loads, an occasional irregular
// property load, and an unconditional CAS on an unrelated (cold) property
// line — the access mix of Fig. 3 with the lock-free update pattern whose
// candidate lines are overwhelmingly cache misses (Fig. 10).
func synthWorkload(threads, opsPerThread, propVerts int, seed uint64) (*memmap.AddressSpace, *trace.Trace) {
	sp := memmap.NewAddressSpace()
	meta := sp.AllocMeta(4096)
	structure := sp.AllocStruct(uint64(propVerts * 8))
	prop := sp.PMRMalloc(uint64(propVerts * 8))
	b := trace.NewBuilder(sp, threads)
	r := sim.NewRand(seed)
	for t := 0; t < threads; t++ {
		e := b.Thread(t)
		for i := 0; i < opsPerThread; i++ {
			e.Load(meta+memmap.Addr((i%32)*8), 8, false)
			e.Compute(2)
			e.Load(structure+memmap.Addr((i%propVerts)*8), 8, false)
			if i%4 == 0 {
				e.Load(prop+memmap.Addr(r.Intn(propVerts)*8), 8, true)
			}
			v := r.Intn(propVerts)
			e.Atomic(trace.AtomicCAS, prop+memmap.Addr(v*8), 8, false, true, r.Intn(10) == 0)
			e.DependentCompute(3)
			e.Store(meta+memmap.Addr((i%32)*8), 8, false)
		}
		e.Compute(10)
	}
	b.Barrier()
	return sp, b.Build()
}

func TestRunCompletesAndRetiresEverything(t *testing.T) {
	sp, tr := synthWorkload(4, 200, 1<<14, 1)
	res := RunTrace(Baseline(), sp, tr)
	if res.Instructions != tr.TotalInstructions() {
		t.Fatalf("retired %d, trace has %d", res.Instructions, tr.TotalInstructions())
	}
	if res.Cycles == 0 {
		t.Fatal("zero cycles")
	}
}

func TestGraphPIMFasterThanBaselineOnAtomicHeavyWorkload(t *testing.T) {
	sp, tr := synthWorkload(8, 400, 1<<22, 2)
	base := RunTrace(Baseline(), sp, tr)
	gp := RunTrace(GraphPIM(false), sp, tr)
	sp2, tr2 := synthWorkload(8, 400, 1<<22, 2)
	up := RunTrace(UPEI(false), sp2, tr2)

	if s := gp.Speedup(base); s < 1.2 {
		t.Fatalf("GraphPIM speedup %.2f over baseline, want > 1.2", s)
	}
	if s := up.Speedup(base); s < 1.0 {
		t.Fatalf("U-PEI speedup %.2f over baseline, want >= 1.0", s)
	}
	// On a large, cache-hostile property set GraphPIM should beat U-PEI.
	if gp.Cycles > up.Cycles {
		t.Fatalf("GraphPIM (%d cycles) slower than U-PEI (%d)", gp.Cycles, up.Cycles)
	}
}

func TestGraphPIMReducesBandwidth(t *testing.T) {
	sp, tr := synthWorkload(8, 400, 1<<22, 3)
	base := RunTrace(Baseline(), sp, tr)
	gp := RunTrace(GraphPIM(false), sp, tr)
	if gp.TotalFlits() >= base.TotalFlits() {
		t.Fatalf("GraphPIM flits %d not below baseline %d", gp.TotalFlits(), base.TotalFlits())
	}
}

func TestOffloadCountersDiffer(t *testing.T) {
	sp, tr := synthWorkload(2, 100, 1<<12, 4)
	base := RunTrace(Baseline(), sp, tr)
	gp := RunTrace(GraphPIM(false), sp, tr)
	if base.Stats["mem.pim_atomics"] != 0 {
		t.Fatal("baseline offloaded atomics")
	}
	if base.Stats["mem.host_atomics"] == 0 {
		t.Fatal("baseline executed no host atomics")
	}
	if gp.Stats["mem.pim_atomics"] == 0 {
		t.Fatal("GraphPIM offloaded nothing")
	}
	if gp.Stats["mem.host_atomics"] != 0 {
		t.Fatal("GraphPIM still executed host atomics")
	}
	if gp.Stats["mem.uc_loads"] == 0 {
		t.Fatal("GraphPIM property loads did not bypass the cache")
	}
}

func TestCandidateMissRateTracked(t *testing.T) {
	sp, tr := synthWorkload(2, 200, 1<<22, 5)
	base := RunTrace(Baseline(), sp, tr)
	total := base.Stats["pou.candidates"]
	hm := base.Stats["pou.candidates.hit"] + base.Stats["pou.candidates.miss"]
	if total == 0 || hm != total {
		t.Fatalf("candidate accounting: total=%d hit+miss=%d", total, hm)
	}
	// Large random property set: mostly misses (Fig. 10's >80%).
	missRate := float64(base.Stats["pou.candidates.miss"]) / float64(total)
	if missRate < 0.5 {
		t.Fatalf("candidate miss rate %.2f unexpectedly low", missRate)
	}
}

func TestAtomicOverheadAttribution(t *testing.T) {
	sp, tr := synthWorkload(2, 200, 1<<14, 6)
	base := RunTrace(Baseline(), sp, tr)
	if base.Stats["cpu.atomic.incore_cycles"] == 0 || base.Stats["cpu.atomic.incache_cycles"] == 0 {
		t.Fatalf("atomic attribution empty: %v %v",
			base.Stats["cpu.atomic.incore_cycles"], base.Stats["cpu.atomic.incache_cycles"])
	}
	gp := RunTrace(GraphPIM(false), sp, tr)
	if gp.Stats["cpu.atomic.incore_cycles"] != 0 {
		t.Fatal("GraphPIM charged in-core atomic overhead")
	}
}

func TestIPCAndMPKI(t *testing.T) {
	sp, tr := synthWorkload(4, 200, 1<<22, 7)
	res := RunTrace(Baseline(), sp, tr)
	ipc := res.IPC(16)
	if ipc <= 0 || ipc > 4 {
		t.Fatalf("IPC = %v out of range", ipc)
	}
	if res.MPKI("cache.l3") <= 0 {
		t.Fatal("L3 MPKI is zero on a cache-hostile workload")
	}
}

// TestZeroDenominatorRatiosAreNaN pins the undefined-ratio policy: a
// zero-cycle or zero-retire result yields NaN (rendered "n/a" by report
// layers), never a misleading 0.
func TestZeroDenominatorRatiosAreNaN(t *testing.T) {
	var empty Result
	if !math.IsNaN(empty.IPC(16)) {
		t.Errorf("IPC of zero-cycle result = %v, want NaN", empty.IPC(16))
	}
	if !math.IsNaN(empty.MPKI("cache.l3")) {
		t.Errorf("MPKI of zero-retire result = %v, want NaN", empty.MPKI("cache.l3"))
	}
	if !math.IsNaN(empty.Speedup(Result{Cycles: 100})) {
		t.Errorf("Speedup of zero-cycle result = %v, want NaN", empty.Speedup(Result{Cycles: 100}))
	}
	ok := Result{Cycles: 100, Instructions: 400, Stats: map[string]uint64{"cache.l3.miss": 10}}
	if got := ok.IPC(1); got != 4 {
		t.Errorf("IPC = %v, want 4", got)
	}
	if got := ok.MPKI("cache.l3"); got != 25 {
		t.Errorf("MPKI = %v, want 25", got)
	}
	if got := ok.Speedup(Result{Cycles: 200}); got != 2 {
		t.Errorf("Speedup = %v, want 2", got)
	}
}

func TestBarrierSynchronizesThreads(t *testing.T) {
	// One thread does long work before the barrier, another almost none;
	// post-barrier work cannot start early, so total cycles exceed the
	// long thread's pre-barrier time.
	sp := memmap.NewAddressSpace()
	prop := sp.PMRMalloc(1 << 16)
	b := trace.NewBuilder(sp, 2)
	b.Thread(0).Compute(10000)
	b.Thread(1).Compute(1)
	b.Barrier()
	b.Thread(1).Load(prop, 8, false)
	tr := b.Build()
	res := RunTrace(Baseline(), sp, tr)
	if res.Stats["machine.barriers"] == 0 {
		t.Fatal("no barrier release recorded")
	}
	if res.Cycles < 2500 {
		t.Fatalf("barrier did not hold back the fast thread: %d cycles", res.Cycles)
	}
}

func TestFPExtensionChangesRouting(t *testing.T) {
	sp := memmap.NewAddressSpace()
	prop := sp.PMRMalloc(1 << 12)
	b := trace.NewBuilder(sp, 1)
	for i := 0; i < 100; i++ {
		b.Thread(0).Atomic(trace.AtomicFPAdd, prop+memmap.Addr(i*8), 8, false, false, false)
	}
	tr := b.Build()
	plain := RunTrace(GraphPIM(false), sp, tr)
	ext := RunTrace(GraphPIM(true), sp, tr)
	if plain.Stats["mem.pim_atomics"] != 0 {
		t.Fatal("FP atomics offloaded without the extension")
	}
	if ext.Stats["mem.pim_atomics"] != 100 {
		t.Fatalf("extension offloaded %d/100 FP atomics", ext.Stats["mem.pim_atomics"])
	}
}

func TestDeterminism(t *testing.T) {
	sp, tr := synthWorkload(4, 100, 1<<12, 9)
	a := RunTrace(GraphPIM(false), sp, tr)
	b := RunTrace(GraphPIM(false), sp, tr)
	if a.Cycles != b.Cycles || a.Instructions != b.Instructions {
		t.Fatalf("nondeterministic runs: %d/%d vs %d/%d", a.Cycles, a.Instructions, b.Cycles, b.Instructions)
	}
}

func TestMaxCyclesGuard(t *testing.T) {
	sp, tr := synthWorkload(4, 5000, 1<<22, 10)
	m := New(Baseline(), sp, tr)
	res := m.Run(1000)
	if res.Cycles > 1000 {
		t.Fatalf("maxCycles not honored: ran %d cycles past the 1000 limit", res.Cycles)
	}
}

func TestNewPanicsOnTooManyThreads(t *testing.T) {
	sp, tr := synthWorkload(17, 1, 64, 11)
	defer func() {
		if recover() == nil {
			t.Fatal("17 threads on 16 cores did not panic")
		}
	}()
	New(Baseline(), sp, tr)
}

// TestAtomicRoutedOnceWithoutStaleDecisions pins the route-once contract
// between AtomicBlocking and Atomic: Atomic uses the decision kept for
// the record it issues, and a decision kept for a record that was never
// issued (a core stalled on a full atomic queue) is never applied to a
// different record.
func TestAtomicRoutedOnceWithoutStaleDecisions(t *testing.T) {
	sp := memmap.NewAddressSpace()
	meta := sp.AllocMeta(4096)
	prop := sp.PMRMalloc(4096)
	b := trace.NewBuilder(sp, 1)
	b.Thread(0).Compute(1)
	m := New(GraphPIM(false), sp, b.Build())
	host := trace.Instr{Kind: trace.KindAtomic, Atomic: trace.AtomicCAS, Addr: meta, Size: 8, Region: memmap.RegionMeta}
	pim := trace.Instr{Kind: trace.KindAtomic, Atomic: trace.AtomicCAS, Addr: prop, Size: 8, Region: memmap.RegionProperty}
	if !m.AtomicBlocking(0, host) || m.AtomicBlocking(0, pim) {
		t.Fatal("fixture records do not route to the host and to PIM")
	}
	// The kept decision is pim's: issuing host must still route host.
	m.AtomicBlocking(0, pim)
	if res := m.Atomic(0, host, 10); !res.Blocking {
		t.Fatal("host atomic issued with the decision kept for a PIM atomic")
	}
	// A decision kept for host and never issued must not survive an
	// Atomic call for another record.
	m.AtomicBlocking(0, host)
	if res := m.Atomic(0, pim, 20); res.Blocking {
		t.Fatal("PIM atomic issued with the decision kept for a host atomic")
	}
	if m.routed[0].valid {
		t.Fatal("Atomic left a kept decision behind")
	}
	// The decision kept on one core is not visible to another.
	m.AtomicBlocking(0, pim)
	if res := m.Atomic(1, host, 30); !res.Blocking {
		t.Fatal("core 1 issued with core 0's kept decision")
	}
}
