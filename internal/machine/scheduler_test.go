package machine

import (
	"fmt"
	"reflect"
	"testing"

	"graphpim/internal/cpu"
	"graphpim/internal/memmap"
	"graphpim/internal/sim"
	"graphpim/internal/trace"
)

// randomTrace emits a randomized multi-thread workload covering every
// dispatch path the schedulers must agree on: compute batches short and
// long (the long ones trigger the fast-forward), dependent and
// independent loads and stores, host and offloadable atomics with used
// and unused return values, CAS failures, FP accumulates, and global
// barriers at random points.
func randomTrace(r *sim.Rand) (*memmap.AddressSpace, *trace.Trace) {
	sp := memmap.NewAddressSpace()
	meta := sp.AllocMeta(4096)
	structure := sp.AllocStruct(1 << 16)
	prop := sp.PMRMalloc(1 << 16)
	threads := 1 + r.Intn(6)
	b := trace.NewBuilder(sp, threads)
	blocks := 1 + r.Intn(4)
	for blk := 0; blk < blocks; blk++ {
		for t := 0; t < threads; t++ {
			e := b.Thread(t)
			ops := r.Intn(60)
			for i := 0; i < ops; i++ {
				switch r.Intn(10) {
				case 0:
					e.Compute(1 + r.Intn(120)) // long batches hit fast-forward
				case 1:
					e.DependentCompute(1 + r.Intn(5))
				case 2, 3:
					e.Load(meta+memmap.Addr(r.Intn(512)*8), 8, r.Intn(2) == 0)
				case 4:
					e.Load(structure+memmap.Addr(r.Intn(8192)*8), 8, r.Intn(2) == 0)
				case 5:
					e.Load(prop+memmap.Addr(r.Intn(8192)*8), 8, r.Intn(2) == 0)
				case 6:
					e.Store(meta+memmap.Addr(r.Intn(512)*8), 8, r.Intn(2) == 0)
				case 7:
					e.Store(prop+memmap.Addr(r.Intn(8192)*8), 8, r.Intn(2) == 0)
				case 8:
					e.Atomic(trace.AtomicCAS, prop+memmap.Addr(r.Intn(8192)*8), 8,
						r.Intn(2) == 0, r.Intn(2) == 0, r.Intn(5) == 0)
				case 9:
					kind := trace.AtomicAdd
					if r.Intn(4) == 0 {
						kind = trace.AtomicFPAdd
					}
					e.Atomic(kind, prop+memmap.Addr(r.Intn(8192)*8), 8,
						r.Intn(2) == 0, false, false)
				}
			}
		}
		if blk < blocks-1 || r.Intn(2) == 0 {
			b.Barrier()
		}
	}
	return sp, b.Build()
}

// diffResults fails the test when two Results differ anywhere — cycle
// count, retirement, or any counter of the full snapshot.
func diffResults(t *testing.T, label string, got, want Result) {
	t.Helper()
	if got.Cycles != want.Cycles {
		t.Fatalf("%s: cycles %d vs %d", label, got.Cycles, want.Cycles)
	}
	if got.Instructions != want.Instructions {
		t.Fatalf("%s: retired %d vs %d", label, got.Instructions, want.Instructions)
	}
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		for k, v := range got.Stats {
			if want.Stats[k] != v {
				t.Errorf("%s: counter %q: %d vs %d", label, k, v, want.Stats[k])
			}
		}
		for k, v := range want.Stats {
			if _, ok := got.Stats[k]; !ok {
				t.Errorf("%s: counter %q missing (want %d)", label, k, v)
			}
		}
		t.Fatalf("%s: counter snapshots diverge", label)
	}
}

// TestSchedulerEquivalence replays randomized traces through the
// event-driven scheduler (Run) and the reference scan loop (runScan)
// and requires bit-identical results from both: same cycle count, same
// retired count, and an identical counter snapshot — including the
// cycle-attribution breakdown. Trials alternate machine
// configurations so the host-atomic freeze path (Baseline), the UC
// bypass path (GraphPIM), and the locality-check path (U-PEI) are all
// exercised, and every third trial truncates with maxCycles.
func TestSchedulerEquivalence(t *testing.T) {
	configs := []func() Config{
		Baseline,
		func() Config { return GraphPIM(false) },
		func() Config { return UPEI(false) },
		func() Config { return GraphPIM(true) },
	}
	r := sim.NewRand(42)
	trials := 150
	if testing.Short() {
		trials = 25
	}
	for trial := 0; trial < trials; trial++ {
		sp, tr := randomTrace(r)
		cfg := configs[trial%len(configs)]()
		var maxCycles uint64
		if trial%3 == 2 {
			maxCycles = 50 + r.Uint64()%5000
		}
		event := NewSource(cfg, sp, tr).Run(maxCycles)
		scan := NewSource(cfg, sp, tr).runScan(maxCycles)
		diffResults(t, fmt.Sprintf("trial %d (%s, max=%d) event vs scan", trial, cfg.Name, maxCycles),
			event, scan)
		dense := NewSource(cfg, sp, tr).runDense(maxCycles)
		diffResults(t, fmt.Sprintf("trial %d (%s, max=%d) event vs dense", trial, cfg.Name, maxCycles),
			event, dense)
	}
}

// TestMultipleBarriersRelease counts one release per global barrier and
// requires the run to complete (barrier handling must not deadlock when
// idle cores are Done before the parked cores arrive).
func TestMultipleBarriersRelease(t *testing.T) {
	sp := memmap.NewAddressSpace()
	prop := sp.PMRMalloc(1 << 12)
	b := trace.NewBuilder(sp, 3)
	const rounds = 5
	for i := 0; i < rounds; i++ {
		b.Thread(0).Compute(500 + i*100)
		b.Thread(1).Compute(5)
		b.Thread(2).Load(prop+memmap.Addr(i*64), 8, false)
		b.Barrier()
	}
	tr := b.Build()
	res := RunTrace(Baseline(), sp, tr)
	if got := res.Stats["machine.barriers"]; got != rounds {
		t.Fatalf("machine.barriers = %d, want %d", got, rounds)
	}
	if res.Instructions != tr.TotalInstructions() {
		t.Fatalf("retired %d of %d", res.Instructions, tr.TotalInstructions())
	}
}

// TestTrailingBarrier parks every thread on a barrier that is the last
// record of each stream: after release the cores must drain straight to
// Done rather than waiting for further wakeups.
func TestTrailingBarrier(t *testing.T) {
	sp := memmap.NewAddressSpace()
	b := trace.NewBuilder(sp, 4)
	for t := 0; t < 4; t++ {
		b.Thread(t).Compute(10 * (t + 1))
	}
	b.Barrier()
	tr := b.Build()
	res := RunTrace(Baseline(), sp, tr)
	if res.Stats["machine.barriers"] != 1 {
		t.Fatalf("machine.barriers = %d, want 1", res.Stats["machine.barriers"])
	}
	if res.Instructions != tr.TotalInstructions() {
		t.Fatalf("retired %d of %d", res.Instructions, tr.TotalInstructions())
	}
}

// TestDeadlockPanics overrides the core-tick seam so every live core
// reports "no future wake time": the scheduler must detect that nothing
// can make progress and panic rather than spin or exit silently.
func TestDeadlockPanics(t *testing.T) {
	orig := tickCore
	defer func() { tickCore = orig }()
	tickCore = func(c *cpu.Core, now, elapsed uint64) uint64 { return ^uint64(0) }

	sp, tr := synthWorkload(2, 10, 1<<12, 21)
	m := NewSource(Baseline(), sp, tr)
	defer func() {
		if recover() == nil {
			t.Fatal("stuck cores did not panic")
		}
	}()
	m.Run(0)
}

// TestMaxCyclesClamped pins the truncation contract: a run cut off by
// maxCycles reports exactly maxCycles, never an overshoot past it.
func TestMaxCyclesClamped(t *testing.T) {
	sp, tr := synthWorkload(4, 5000, 1<<22, 10)
	const limit = 1000
	res := NewSource(Baseline(), sp, tr).Run(limit)
	if res.Cycles != limit {
		t.Fatalf("truncated run reported %d cycles, want exactly %d", res.Cycles, limit)
	}
	if res.Instructions >= tr.TotalInstructions() {
		t.Fatalf("run was not actually truncated: retired all %d instructions", res.Instructions)
	}

	// A run that finishes under the limit reports its natural length.
	sp2, tr2 := synthWorkload(1, 2, 1<<10, 11)
	free := NewSource(Baseline(), sp2, tr2).Run(0)
	capped := NewSource(Baseline(), sp2, tr2).Run(free.Cycles + 100000)
	if capped.Cycles != free.Cycles {
		t.Fatalf("generous limit changed cycles: %d vs %d", capped.Cycles, free.Cycles)
	}
}
