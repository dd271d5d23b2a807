package dram_test

import (
	"testing"

	"graphpim/internal/mem/channel"
	"graphpim/internal/mem/dram"
)

// FuzzLaneReserve drives Lane.Reserve with arbitrary ready times and
// transfer sizes and checks the lane's contract on every call: a
// transfer never finishes before its ready time, serialization charges
// at least one cycle per nonempty transfer, and the per-epoch ledger
// never exceeds the budget (Lane.Audit — the same invariant the runtime
// sanitizer enforces on every backend).
//
// The rate set covers every lane the backends build from their
// DefaultConfig: the HMC links (15 FLITs/cycle), the ddr and lpddr
// channel buses and the vault links (bytes/cycle), plus slow and fast
// extremes.
//
// The script bytes decode in pairs: the first byte advances or rewinds
// the ready time (out-of-order arrivals are part of the contract — no
// head-of-line blocking), the second picks the transfer size 1..8 units.
func FuzzLaneReserve(f *testing.F) {
	f.Add(uint8(0), []byte{0, 4, 10, 4, 5, 1})
	f.Add(uint8(1), []byte{255, 8, 0, 8, 128, 2, 7, 7})
	f.Add(uint8(3), []byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	rates := []float64{0.5, 1, 3.75, 15, 30}
	for _, c := range channel.Rows() { // ddr, lpddr, vault
		rates = append(rates, dram.BytesPerCycle(c.LaneGBs))
	}
	f.Fuzz(func(t *testing.T, rateSel uint8, script []byte) {
		l := dram.NewLane(rates[int(rateSel)%len(rates)])
		var now uint64
		for i := 0; i+1 < len(script) && i < 4096; i += 2 {
			delta, szByte := script[i], script[i+1]
			if delta >= 128 && now >= uint64(delta-128) {
				now -= uint64(delta - 128) // rewind: out-of-order ready time
			} else {
				now += uint64(delta)
			}
			units := 1 + int(szByte)%8
			done := l.Reserve(now, units)
			if done <= now {
				t.Fatalf("Reserve(ready=%d, units=%d) = %d, not after ready", now, units, done)
			}
			// The full-ledger audit sweeps 16K slots; amortize it.
			if i%128 == 0 {
				if err := l.Audit(); err != nil {
					t.Fatalf("after Reserve(ready=%d, units=%d): %v", now, units, err)
				}
			}
		}
		if err := l.Audit(); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzLaneSlack checks the lane certificate: a sequence booked at one
// rate records a LaneSlack, and every rate the slack admits must return
// the same cycle for every reservation when a fresh lane books the same
// sequence. The rate set holds the HMC link rates of the Fig. 13 sweep
// (7.5, 15 and 30 FLITs/cycle), every channel row's byte rate and slow
// and fast extremes; its slowest lane still fits the largest transfer.
//
// The script decodes as in FuzzLaneReserve, with transfers of 1..16
// units so that sizes cross the rates' serialization steps.
func FuzzLaneSlack(f *testing.F) {
	f.Add(uint8(0), []byte{0, 4, 10, 4, 5, 1})
	f.Add(uint8(2), []byte{40, 4, 40, 0, 40, 1, 200, 2})
	f.Add(uint8(3), []byte{1, 15, 1, 15, 1, 15, 1, 15, 1, 15, 1, 15})
	f.Add(uint8(5), []byte{64, 7, 0, 7, 64, 7, 0, 7, 130, 3})
	rates := []float64{0.5, 1, 3.75, 7.5, 15, 30, 64}
	for _, c := range channel.Rows() {
		rates = append(rates, dram.BytesPerCycle(c.LaneGBs))
	}
	f.Fuzz(func(t *testing.T, rateSel uint8, script []byte) {
		type booking struct {
			ready uint64
			units int
		}
		var seq []booking
		var now uint64
		for i := 0; i+1 < len(script) && i < 4096; i += 2 {
			delta, szByte := script[i], script[i+1]
			if delta >= 128 && now >= uint64(delta-128) {
				now -= uint64(delta - 128)
			} else {
				now += uint64(delta)
			}
			seq = append(seq, booking{now, 1 + int(szByte)%16})
		}
		from := rates[int(rateSel)%len(rates)]
		l := dram.NewLane(from)
		want := make([]uint64, len(seq))
		for i, b := range seq {
			want[i] = l.Reserve(b.ready, b.units)
		}
		slack := l.Slack()
		if !slack.Admits(from, from) {
			t.Fatalf("slack %+v does not admit its own rate %g", slack, from)
		}
		for _, to := range rates {
			if to == from || !slack.Admits(from, to) {
				continue
			}
			m := dram.NewLane(to)
			for i, b := range seq {
				if got := m.Reserve(b.ready, b.units); got != want[i] {
					t.Fatalf("slack %+v admits rate %g from %g, but Reserve(ready=%d, units=%d) #%d = %d, want %d",
						slack, to, from, b.ready, b.units, i, got, want[i])
				}
			}
		}
	})
}
