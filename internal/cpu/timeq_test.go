package cpu

import (
	"testing"

	"graphpim/internal/sim"
)

func TestTimeqBasics(t *testing.T) {
	q := newTimeq(make([]uint64, 4))
	if !q.empty() || q.len() != 0 {
		t.Fatal("new timeq not empty")
	}
	if q.minT() != ^uint64(0) {
		t.Fatalf("empty minT = %d, want max sentinel", q.minT())
	}
	if q.maxT() != 0 {
		t.Fatalf("empty maxT = %d, want 0", q.maxT())
	}

	q.add(30)
	q.add(10)
	q.add(20)
	if q.len() != 3 || q.minT() != 10 || q.maxT() != 30 {
		t.Fatalf("len/min/max = %d/%d/%d, want 3/10/30", q.len(), q.minT(), q.maxT())
	}

	q.expire(5) // nothing due: O(1) no-op
	if q.len() != 3 || q.minT() != 10 {
		t.Fatalf("expire(5) changed state: len=%d min=%d", q.len(), q.minT())
	}
	q.expire(10) // drops the 10, min moves to 20
	if q.len() != 2 || q.minT() != 20 || q.maxT() != 30 {
		t.Fatalf("after expire(10): len/min/max = %d/%d/%d", q.len(), q.minT(), q.maxT())
	}
	q.expire(100)
	if !q.empty() || q.minT() != ^uint64(0) {
		t.Fatalf("after expire(100): len=%d min=%d", q.len(), q.minT())
	}
}

func TestTimeqCapacityPanics(t *testing.T) {
	q := newTimeq(make([]uint64, 2))
	q.add(1)
	q.add(2)
	defer func() {
		if recover() == nil {
			t.Fatal("add past capacity did not panic")
		}
	}()
	q.add(3)
}

// TestTimeqRandomizedAgainstSlice replays a random add/expire stream
// through timeq and the legacy slice + expire() representation and
// checks count, minimum, and maximum stay identical.
func TestTimeqRandomizedAgainstSlice(t *testing.T) {
	r := sim.NewRand(11)
	q := newTimeq(make([]uint64, 64))
	var legacy []uint64
	now := uint64(0)
	for step := 0; step < 50000; step++ {
		if len(legacy) < 64 && r.Intn(3) != 0 {
			tt := now + 1 + r.Uint64()%50
			q.add(tt)
			legacy = append(legacy, tt)
		} else {
			now += r.Uint64() % 20
			q.expire(now)
			keep := legacy[:0]
			for _, tt := range legacy {
				if tt > now {
					keep = append(keep, tt)
				}
			}
			legacy = keep
		}
		if q.len() != len(legacy) {
			t.Fatalf("step %d: len %d vs legacy %d", step, q.len(), len(legacy))
		}
		wantMin, wantMax := ^uint64(0), uint64(0)
		for _, tt := range legacy {
			if tt < wantMin {
				wantMin = tt
			}
			if tt > wantMax {
				wantMax = tt
			}
		}
		if q.minT() != wantMin || q.maxT() != wantMax {
			t.Fatalf("step %d: min/max %d/%d vs legacy %d/%d",
				step, q.minT(), q.maxT(), wantMin, wantMax)
		}
	}
}
