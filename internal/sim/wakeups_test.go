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

// TestWakeupsRandomizedAgainstModel drives the table and a naive
// linear-scan model with the same random operation stream and checks
// every pop agrees, including the (time, id) tie-break of PopMin and
// the due mask of PopDue.
func TestWakeupsRandomizedAgainstModel(t *testing.T) {
	const n = MaxActors
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

	for step := 0; step < 40000; step++ {
		switch r.Intn(4) {
		case 0, 1: // schedule / reschedule; a small time range forces ties
			id := r.Intn(n)
			tt := r.Uint64() % 64
			w.Schedule(id, tt)
			model[id] = tt
		case 2: // pop one
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
		case 3: // pop every actor due at the earliest time
			_, mT, mOK := modelMin()
			var want uint64
			for id, tt := range model {
				if tt == mT {
					want |= 1 << uint(id)
				}
			}
			tt, due := w.PopDue()
			if due != want || (mOK && tt != mT) {
				t.Fatalf("step %d: PopDue = (%d,%#x), model (%d,%#x)", step, tt, due, mT, want)
			}
			for id := range model {
				if want&(1<<uint(id)) != 0 {
					delete(model, id)
				}
			}
		}
		if w.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, model %d", step, w.Len(), len(model))
		}
		for id := 0; id < n; id++ {
			if _, in := model[id]; w.Scheduled(id) != in {
				t.Fatalf("step %d: Scheduled(%d) = %v, model %v", step, id, !in, in)
			}
		}
	}
}

func TestWakeupsPopDueEmpty(t *testing.T) {
	w := NewWakeups(3)
	if _, due := w.PopDue(); due != 0 {
		t.Fatalf("empty table returned due mask %#x", due)
	}
	w.Schedule(1, 5)
	w.Schedule(2, 5)
	w.Schedule(0, 9)
	if tt, due := w.PopDue(); tt != 5 || due != 0b110 {
		t.Fatalf("PopDue = (%d,%#b), want (5,0b110)", tt, due)
	}
	if w.Len() != 1 || w.Scheduled(1) || w.Scheduled(2) || !w.Scheduled(0) {
		t.Fatalf("after PopDue: Len %d, scheduled %v %v %v", w.Len(), w.Scheduled(0), w.Scheduled(1), w.Scheduled(2))
	}
}

func TestWakeupsLimits(t *testing.T) {
	NewWakeups(MaxActors) // the largest table must construct
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("NewWakeups(65)", func() { NewWakeups(MaxActors + 1) })
	mustPanic("Schedule at the reserved time", func() { NewWakeups(1).Schedule(0, ^uint64(0)) })
	mustPanic("PopMin on an empty table", func() { NewWakeups(1).PopMin() })
}
