package cache

import (
	"testing"
	"unsafe"

	"graphpim/internal/memmap"
	"graphpim/internal/sim"
)

// modelSlot is one way of the naive reference model: a plain struct per
// slot, searched and replaced the obvious way.
type modelSlot struct {
	tag   memmap.Addr
	valid bool
	lru   uint64
	st    state
	dirty bool
}

// TestArrayAgainstNaiveModel drives the packed array and a plain
// []modelSlot model with one random stream of probes, installs,
// invalidates and touches, and checks that a probe hits exactly when a
// valid slot holds the tag, in the same slot, and that every install
// picks the model's victim — the first invalid slot, otherwise the
// least recently touched line — and reports the same evicted line.
func TestArrayAgainstNaiveModel(t *testing.T) {
	for _, directory := range []bool{false, true} {
		const sets, ways = 4, 4
		a := newArray(sets*ways*64, ways, 64, directory)
		model := make([]modelSlot, sets*ways)
		var ctr uint64
		r := sim.NewRand(11)

		find := func(addr memmap.Addr) int {
			base := int(uint64(addr)>>6) % sets * ways
			for w := 0; w < ways; w++ {
				if m := model[base+w]; m.valid && m.tag == addr {
					return base + w
				}
			}
			return -1
		}
		victim := func(base int) int {
			v := -1
			for w := 0; w < ways; w++ {
				m := model[base+w]
				if !m.valid {
					return base + w
				}
				if v < 0 || m.lru < model[v].lru {
					v = base + w
				}
			}
			return v
		}

		for step := 0; step < 50000; step++ {
			// 24 line addresses over 4 sets, line 0 included, so every set
			// overflows and tag 0 is exercised.
			addr := memmap.Addr(r.Intn(24) * 64)
			want := find(addr)
			base, got := a.probe(addr)
			if got != want {
				t.Fatalf("dir=%v step %d: probe(%#x) = %d, model %d", directory, step, addr, got, want)
			}
			switch op := r.Intn(4); {
			case op == 0 && want < 0:
				st := state(1 + r.Intn(3))
				dirty := st == stModified && r.Intn(2) == 0
				v := victim(base)
				old := model[v]
				i, ev := a.installIn(base, addr, st, dirty)
				if i != v {
					t.Fatalf("dir=%v step %d: install of %#x chose slot %d, model %d", directory, step, addr, i, v)
				}
				if ev.valid != old.valid || (old.valid && (ev.tag != old.tag || ev.st != old.st || ev.dirty != old.dirty)) {
					t.Fatalf("dir=%v step %d: evicted %+v, model %+v", directory, step, ev, old)
				}
				ctr++
				model[v] = modelSlot{tag: addr, valid: true, lru: ctr, st: st, dirty: dirty}
			case op == 1:
				dirty, was := a.invalidate(addr)
				if was != (want >= 0) || (was && dirty != model[want].dirty) {
					t.Fatalf("dir=%v step %d: invalidate(%#x) = (%v,%v), model present=%v", directory, step, addr, dirty, was, want >= 0)
				}
				if was {
					model[want] = modelSlot{}
				}
			case want >= 0:
				a.touch(want)
				ctr++
				model[want].lru = ctr
			}
			for i := range model {
				if err := a.checkSlot(i); err != nil {
					t.Fatalf("dir=%v step %d: %v", directory, step, err)
				}
				if m := model[i]; a.valid(i) != m.valid || (m.valid && (a.tag(i) != m.tag || a.meta[i].st != m.st || a.meta[i].dirty != m.dirty)) {
					t.Fatalf("dir=%v step %d: slot %d = (%v,%#x,%+v), model %+v", directory, step, i, a.valid(i), a.tag(i), a.meta[i], m)
				}
			}
		}
	}
}

// TestArraySlotBytes pins the metadata footprint the packed layout
// promises: no slot may cost more than the 32-byte struct it replaced.
func TestArraySlotBytes(t *testing.T) {
	perSlot := map[bool]uintptr{
		false: unsafe.Sizeof(uint64(0))*2 + unsafe.Sizeof(slot{}),
		true:  unsafe.Sizeof(uint64(0))*2 + unsafe.Sizeof(slot{}) + unsafe.Sizeof(dirEntry{}),
	}
	for directory, per := range perSlot {
		if per > 32 {
			t.Errorf("directory=%v: %d metadata bytes per slot, want at most 32", directory, per)
		}
	}
}
