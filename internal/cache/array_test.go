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

// checkAgainstNaiveModel drives a ways-way, four-set array and a plain
// []modelSlot model with one stream of probes, installs, invalidates
// and touches, drawn from next (which returns a value in [0,n)), and
// checks that a probe hits exactly when a valid slot holds the tag, in
// the same slot, and that every install picks the model's victim — the
// first invalid slot, otherwise the least recently touched line — and
// reports the same evicted line. After every step it also runs the
// layout audit (checkSlot, which covers the set words).
func checkAgainstNaiveModel(t *testing.T, ways int, directory bool, steps int, next func(n int) int) {
	t.Helper()
	const sets = 4
	a := newArray(sets*ways*64, ways, 64, directory)
	model := make([]modelSlot, sets*ways)
	var ctr uint64

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

	// ways+2 lines per set, line 0 included, so every set overflows and
	// tag 0 is exercised.
	lines := sets * (ways + 2)
	for step := 0; step < steps; step++ {
		addr := memmap.Addr(next(lines) * 64)
		want := find(addr)
		set, got := a.probe(addr)
		if got != want {
			t.Fatalf("ways=%d dir=%v step %d: probe(%#x) = %d, model %d", ways, directory, step, addr, got, want)
		}
		switch op := next(4); {
		case op == 0 && want < 0:
			st := state(1 + next(3))
			dirty := st == stModified && next(2) == 0
			v := victim(set * ways)
			old := model[v]
			if w := a.victim(set); set*ways+w != v {
				t.Fatalf("ways=%d dir=%v step %d: victim way %d, model slot %d", ways, directory, step, w, v)
			}
			i, ev := a.installIn(set, addr, st, dirty)
			if i != v {
				t.Fatalf("ways=%d dir=%v step %d: install of %#x chose slot %d, model %d", ways, directory, step, addr, i, v)
			}
			if ev.valid != old.valid || (old.valid && (ev.tag != old.tag || ev.st != old.st || ev.dirty != old.dirty)) {
				t.Fatalf("ways=%d dir=%v step %d: evicted %+v, model %+v", ways, directory, step, ev, old)
			}
			ctr++
			model[v] = modelSlot{tag: addr, valid: true, lru: ctr, st: st, dirty: dirty}
		case op == 1:
			dirty, was := a.invalidate(addr)
			if was != (want >= 0) || (was && dirty != model[want].dirty) {
				t.Fatalf("ways=%d dir=%v step %d: invalidate(%#x) = (%v,%v), model present=%v", ways, directory, step, addr, dirty, was, want >= 0)
			}
			if was {
				model[want] = modelSlot{}
			}
		case want >= 0:
			a.touch(set, want)
			ctr++
			model[want].lru = ctr
		}
		for i := range model {
			if err := a.checkSlot(i); err != nil {
				t.Fatalf("ways=%d dir=%v step %d: %v", ways, directory, step, err)
			}
			if m := model[i]; a.valid(i) != m.valid || (m.valid && (a.tag(i) != m.tag || a.meta[i].st != m.st || a.meta[i].dirty != m.dirty)) {
				t.Fatalf("ways=%d dir=%v step %d: slot %d = (%v,%#x,%+v), model %+v", ways, directory, step, i, a.valid(i), a.tag(i), a.meta[i], m)
			}
		}
	}
}

// TestArrayAgainstNaiveModel runs the model check over associativities
// from direct-mapped to the 16-way limit, including non-powers of two
// (Config.Validate requires only a power-of-two set count).
func TestArrayAgainstNaiveModel(t *testing.T) {
	for _, ways := range []int{1, 2, 3, 4, 8, 12, 16} {
		for _, directory := range []bool{false, true} {
			r := sim.NewRand(11)
			checkAgainstNaiveModel(t, ways, directory, 50000, r.Intn)
		}
	}
}

// FuzzArrayLRU runs the model check with the associativity, the
// directory flag and the whole operation stream taken from the input.
// Each draw consumes one script byte (reduced mod n); the stream ends
// after len(script)/2 steps, capped at 4096.
func FuzzArrayLRU(f *testing.F) {
	f.Add(uint8(15), false, []byte{0, 0, 1, 0, 2, 0, 0, 3, 3, 2, 5, 1, 0, 2})
	f.Add(uint8(2), true, []byte{7, 0, 1, 4, 9, 0, 2, 2, 3, 2, 7, 1, 4, 0, 1})
	f.Add(uint8(0), false, []byte{0, 0, 1, 2, 4, 0, 2, 1, 0, 2, 4, 1})
	f.Fuzz(func(t *testing.T, waysSel uint8, directory bool, script []byte) {
		pos := 0
		next := func(n int) int {
			if pos >= len(script) {
				return 0
			}
			pos++
			return int(script[pos-1]) % n
		}
		checkAgainstNaiveModel(t, 1+int(waysSel)%MaxWays, directory, min(len(script)/2, 4096), next)
	})
}

// TestNewArrayPanicsOnBadGeometry: a geometry Config.Validate rejects,
// or one the order word cannot encode, must not build an array.
func TestNewArrayPanicsOnBadGeometry(t *testing.T) {
	for _, tc := range []struct {
		name                  string
		size, ways, lineBytes int
	}{
		{"17 ways", 17 * 64 * 4, 17, 64},
		{"smaller than one set", 512, 16, 64},
		{"not a multiple of ways*line", 16*64*4 + 64, 16, 64},
		{"sets not pow2", 3 * 8 * 64, 8, 64},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: newArray(%d, %d, %d) did not panic", tc.name, tc.size, tc.ways, tc.lineBytes)
				}
			}()
			newArray(tc.size, tc.ways, tc.lineBytes, false)
		}()
	}
}

// TestArraySlotBytes pins the metadata footprint of the layout: 8 B key
// plus 3 B state per slot, 8 B more for the L3's directory entry, and at
// most 10 B of replacement state per set (the order word and the
// occupancy mask).
func TestArraySlotBytes(t *testing.T) {
	perSlot := map[bool]uintptr{
		false: unsafe.Sizeof(uint64(0)) + unsafe.Sizeof(slot{}),
		true:  unsafe.Sizeof(uint64(0)) + unsafe.Sizeof(slot{}) + unsafe.Sizeof(dirEntry{}),
	}
	want := map[bool]uintptr{false: 11, true: 19}
	for directory, per := range perSlot {
		if per > want[directory] {
			t.Errorf("directory=%v: %d metadata bytes per slot, want at most %d", directory, per, want[directory])
		}
	}
	var a array
	if perSet := unsafe.Sizeof(a.order[0]) + unsafe.Sizeof(a.occ[0]); perSet > 10 {
		t.Errorf("%d bytes of replacement state per set, want at most 10", perSet)
	}
}
