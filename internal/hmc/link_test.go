package hmc

import (
	"testing"
	"testing/quick"

	"graphpim/internal/mem/dram"
	"graphpim/internal/sim"
)

// The cube's links are dram.Lane values metering FLITs; these tests pin
// the lane contract at the HMC link rate (15 FLITs/cycle by default).

func TestLinkLaneNoHeadOfLineBlocking(t *testing.T) {
	l := dram.NewLane(15)
	// A packet scheduled far in the future must not delay one that is
	// ready now.
	future := l.Reserve(1_000_000, 5)
	nowDone := l.Reserve(10, 5)
	if nowDone > 20 {
		t.Fatalf("present packet delayed to %d by a future reservation", nowDone)
	}
	if future < 1_000_000 {
		t.Fatalf("future packet finished at %d, before its ready time", future)
	}
}

func TestLinkLaneEnforcesBandwidth(t *testing.T) {
	// 15 FLITs/cycle, epoch of 32 cycles -> 480 FLITs per epoch. Pushing
	// 4800 FLITs all ready at t=0 must take at least 10 epochs.
	l := dram.NewLane(15)
	var last uint64
	for i := 0; i < 960; i++ {
		done := l.Reserve(0, 5)
		if done > last {
			last = done
		}
	}
	if last < 9*dram.EpochCycles {
		t.Fatalf("4800 FLITs drained by cycle %d; capacity is 480/epoch", last)
	}
}

// Property: a reservation never completes before its ready time, and
// total reserved FLITs in any epoch never exceed the budget.
func TestLinkLaneProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := sim.NewRand(seed)
		l := dram.NewLane(15)
		loads := map[uint64]float64{}
		for i := 0; i < 500; i++ {
			ready := uint64(r.Intn(2000))
			flits := 1 + r.Intn(5)
			done := l.Reserve(ready, flits)
			if done < ready {
				return false
			}
			// Track per-epoch totals using the lane's own bookkeeping
			// assumption: the packet was booked at epoch(done-ser).
			loads[done/dram.EpochCycles] += float64(flits)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
	// Direct check of the epoch ledger.
	l := dram.NewLane(15)
	for i := 0; i < 2000; i++ {
		l.Reserve(uint64(i%64), 4)
	}
	if err := l.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestLinkLaneSerializationCeil pins the serialization delay to ceil
// semantics: a packet whose FLIT count divides the link rate exactly
// must pay exactly flits/rate cycles. The old truncate-plus-one formula
// overcharged one cycle at every exact boundary (15 FLITs at 15
// FLITs/cycle cost 2 cycles instead of 1).
func TestLinkLaneSerializationCeil(t *testing.T) {
	cases := []struct {
		rate  float64
		flits int
		want  uint64 // serialization cycles beyond the ready time
	}{
		{15, 15, 1}, // exact boundary: one full cycle, not two
		{15, 30, 2}, // two full cycles
		{15, 5, 1},  // partial cycle rounds up
		{15, 16, 2}, // just past a boundary
		{2, 4, 2},   // exact at a small rate
		{2, 5, 3},   // partial at a small rate
		{0.5, 1, 2}, // sub-FLIT/cycle link: 1 FLIT takes 2 cycles
		{0.5, 3, 6}, // and scales linearly
	}
	for _, c := range cases {
		l := dram.NewLane(c.rate)
		const ready = 64 // epoch-aligned so no epoch rounding interferes
		if got := l.Reserve(ready, c.flits); got != ready+c.want {
			t.Errorf("rate %v: reserve(%d, %d flits) = %d, want %d",
				c.rate, ready, c.flits, got, ready+c.want)
		}
	}
}

func TestLinkLaneSlotRecycling(t *testing.T) {
	l := dram.NewLane(15)
	// Fill an early epoch, then jump one full ring later: the recycled
	// slot must reset rather than appear full.
	for i := 0; i < 96; i++ {
		l.Reserve(0, 5) // 480 FLITs: epoch 0 full
	}
	wrapReady := uint64(dram.EpochSlots * dram.EpochCycles) // same slot, next ring lap
	done := l.Reserve(wrapReady, 5)
	if done > wrapReady+dram.EpochCycles {
		t.Fatalf("recycled epoch slot behaved as full: done at %d for ready %d", done, wrapReady)
	}
}
