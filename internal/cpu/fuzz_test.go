package cpu

import (
	"testing"
)

// FuzzTimeq checks timeq against a naive reference model (a plain
// slice) under arbitrary interleavings of add and expire. The queue's
// whole point is its incrementally tracked minimum; the model recomputes
// everything from scratch, so any drift in the tracking — exactly what
// the runtime sanitizer's timeq.audit watches for — shows up as a
// divergence here.
//
// Script bytes decode as: low 2 bits select the op (add, add, expire
// after advancing time, expire at the current time); high 6 bits are
// the operand (completion-time offset or time advance).
func FuzzTimeq(f *testing.F) {
	f.Add(uint8(4), []byte{0, 4, 8, 2, 130, 3})
	f.Add(uint8(16), []byte{1, 1, 1, 1, 255, 2, 3, 3})
	f.Add(uint8(1), []byte{0, 2, 0, 2, 0, 2})
	f.Fuzz(func(t *testing.T, capSel uint8, script []byte) {
		capacity := 1 + int(capSel)%32
		q := newTimeq(make([]uint64, capacity))
		var model []uint64
		var now uint64
		for step, b := range script {
			if step >= 4096 {
				break
			}
			arg := uint64(b >> 2)
			switch b & 3 {
			case 0, 1:
				if len(model) >= capacity {
					continue // caller contract: never add past capacity
				}
				tm := now + arg
				q.add(tm)
				model = append(model, tm)
			case 2:
				now += arg
				fallthrough
			case 3:
				q.expire(now)
				keep := model[:0]
				for _, tm := range model {
					if tm > now {
						keep = append(keep, tm)
					}
				}
				model = keep
			}
			if err := q.audit(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if q.len() != len(model) || q.empty() != (len(model) == 0) {
				t.Fatalf("step %d: len %d vs model %d", step, q.len(), len(model))
			}
			wantMin, wantMax := ^uint64(0), uint64(0)
			for _, tm := range model {
				if tm < wantMin {
					wantMin = tm
				}
				if tm > wantMax {
					wantMax = tm
				}
			}
			if q.minT() != wantMin {
				t.Fatalf("step %d: minT %d vs model %d", step, q.minT(), wantMin)
			}
			if q.maxT() != wantMax {
				t.Fatalf("step %d: maxT %d vs model %d", step, q.maxT(), wantMax)
			}
		}
	})
}
