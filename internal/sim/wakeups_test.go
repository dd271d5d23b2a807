package sim

import "testing"

func TestWakeupsBasicOrder(t *testing.T) {
	w := NewWakeups(4)
	if _, ok := w.Min(); ok {
		t.Fatal("empty queue reported a min")
	}
	w.Schedule(2, 30)
	w.Schedule(0, 10)
	w.Schedule(1, 20)
	w.Schedule(3, 10)

	if mt, ok := w.Min(); !ok || mt != 10 {
		t.Fatalf("Min = %d,%v want 10,true", mt, ok)
	}
	// Equal times pop in id order: 0 before 3.
	wantIDs := []int{0, 3, 1, 2}
	wantTs := []uint64{10, 10, 20, 30}
	for i, want := range wantIDs {
		id, tt := w.PopMin()
		if id != want || tt != wantTs[i] {
			t.Fatalf("pop %d = (%d,%d), want (%d,%d)", i, id, tt, want, wantTs[i])
		}
	}
	if w.Len() != 0 {
		t.Fatalf("Len = %d after draining", w.Len())
	}
}

func TestWakeupsReschedule(t *testing.T) {
	w := NewWakeups(3)
	w.Schedule(0, 100)
	w.Schedule(1, 50)
	w.Schedule(2, 75)

	w.Schedule(0, 10) // move earlier
	if id, tt := w.PopMin(); id != 0 || tt != 10 {
		t.Fatalf("pop = (%d,%d), want (0,10)", id, tt)
	}
	w.Schedule(1, 200) // move later
	if id, tt := w.PopMin(); id != 2 || tt != 75 {
		t.Fatalf("pop = (%d,%d), want (2,75)", id, tt)
	}
	// Rescheduling to the same time is a no-op.
	w.Schedule(1, 200)
	if id, tt := w.PopMin(); id != 1 || tt != 200 {
		t.Fatalf("pop = (%d,%d), want (1,200)", id, tt)
	}
}

// TestWakeupsRandomizedAgainstModel drives the heap and a naive
// linear-scan model with the same random operation stream and checks
// every pop agrees, including the (time, id) tie-break.
func TestWakeupsRandomizedAgainstModel(t *testing.T) {
	const n = 24
	r := NewRand(7)
	w := NewWakeups(n)
	model := make(map[int]uint64)

	modelMin := func() (int, uint64, bool) {
		bestID, bestT, ok := -1, uint64(0), false
		for id := 0; id < n; id++ {
			tt, in := model[id]
			if !in {
				continue
			}
			if !ok || tt < bestT || (tt == bestT && id < bestID) {
				bestID, bestT, ok = id, tt, true
			}
		}
		return bestID, bestT, ok
	}

	for step := 0; step < 20000; step++ {
		switch r.Intn(3) {
		case 0, 1: // schedule / reschedule
			id := r.Intn(n)
			tt := r.Uint64() % 1000
			w.Schedule(id, tt)
			model[id] = tt
		case 2: // pop
			mID, mT, mOK := modelMin()
			if gotT, gotOK := w.Min(); gotOK != mOK || (mOK && gotT != mT) {
				t.Fatalf("step %d: Min = %d,%v, model %d,%v", step, gotT, gotOK, mT, mOK)
			}
			if !mOK {
				continue
			}
			id, tt := w.PopMin()
			if id != mID || tt != mT {
				t.Fatalf("step %d: PopMin = (%d,%d), model (%d,%d)", step, id, tt, mID, mT)
			}
			delete(model, id)
		}
		if w.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, model %d", step, w.Len(), len(model))
		}
	}
}
