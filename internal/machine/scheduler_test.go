package machine

import (
	"fmt"
	"reflect"
	"testing"

	"graphpim/internal/check"
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
	return randomThreads(r, 1+r.Intn(6))
}

// randomThreads is randomTrace with a fixed thread count.
func randomThreads(r *sim.Rand, threads int) (*memmap.AddressSpace, *trace.Trace) {
	sp := memmap.NewAddressSpace()
	meta := sp.AllocMeta(4096)
	structure := sp.AllocStruct(1 << 16)
	prop := sp.PMRMalloc(1 << 16)
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
// exercised.
//
// Further trials replay one- and two-thread traces on the 16-core
// machine. The other cores are done after their first tick, so nearly
// every event has one due core and the lone re-tick (stepLone) carries
// the run. Each is replayed once more under the periodic sanitizer at a
// short interval, which puts checkpoints inside lone stretches: the
// loop audit must pass there and the result must not move.
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
		event := NewSource(cfg, sp, tr).Run()
		scan := NewSource(cfg, sp, tr).runScan()
		diffResults(t, fmt.Sprintf("trial %d (%s) event vs scan", trial, cfg.Name), event, scan)
		dense := NewSource(cfg, sp, tr).runDense()
		diffResults(t, fmt.Sprintf("trial %d (%s) event vs dense", trial, cfg.Name), event, dense)
	}
	for trial := 0; trial < trials/3; trial++ {
		threads := 1 + trial%2
		sp, tr := randomThreads(r, threads)
		cfg := configs[trial%len(configs)]()
		label := fmt.Sprintf("lone trial %d (%d threads, %s)", trial, threads, cfg.Name)
		event := NewSource(cfg, sp, tr).Run()
		diffResults(t, label+" event vs scan", event, NewSource(cfg, sp, tr).runScan())
		diffResults(t, label+" event vs dense", event, NewSource(cfg, sp, tr).runDense())
		cfg.Check, cfg.CheckInterval = check.Periodic, 16
		diffResults(t, label+" checked vs unchecked", runCheckpointed(t, label, cfg, sp, tr), event)
	}
}

// runCheckpointed replays tr under cfg's periodic sanitizer and requires
// each checkpoint to run at the first event time at or past its due
// time, as when every event went through the wake table: a lone core's
// re-ticks must not carry a checkpoint past the event where it was due.
func runCheckpointed(t *testing.T, label string, cfg Config, sp *memmap.AddressSpace, tr *trace.Trace) Result {
	t.Helper()
	orig := tickCore
	defer func() { tickCore = orig }()
	var events, got []uint64
	tickCore = func(c *cpu.Core, now, elapsed uint64) uint64 {
		if len(events) == 0 || events[len(events)-1] != now {
			events = append(events, now)
		}
		return orig(c, now, elapsed)
	}
	m := NewSource(cfg, sp, tr)
	m.checks.Register("checkpoint-times", check.NoCore, func(now uint64) error {
		got = append(got, now)
		return nil
	})
	res := m.Run()
	var want []uint64
	due := cfg.CheckInterval
	for _, now := range events {
		if now >= due {
			want = append(want, now)
			for due <= now {
				due += cfg.CheckInterval
			}
		}
	}
	want = append(want, res.Cycles) // the final sweep
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: checkpoints at %v, want %v", label, got, want)
	}
	return res
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
	m.Run()
}
