package cache

import (
	"reflect"
	"testing"

	"graphpim/internal/memmap"
	"graphpim/internal/sim"
)

// walkAccess is the reference for Access: the plain L1 -> L2 -> L3 walk
// that scans each private cache before asking the L3, and looks the
// line up in the L3 again for every directory update. Access must be
// indistinguishable from it.
func (h *Hierarchy) walkAccess(core int, addr memmap.Addr, write bool, now uint64) AccessResult {
	lineAddr := memmap.LineAddr(addr)
	l1, l2, l3 := h.l1[core], h.l2[core], h.l3
	setOwner := func() {
		if i := l3.lookup(lineAddr); i >= 0 {
			l3.dir[i].owner = int8(core)
		}
	}
	upgrade := func() {
		if i := l3.lookup(lineAddr); i >= 0 {
			h.upgrade(i, core)
		}
	}
	res := AccessResult{}
	res.Latency = h.cfg.L1Lat
	h.ctr.l1Access.Inc()

	s1, i1 := l1.probe(lineAddr)
	if i1 >= 0 {
		l1.touch(s1, i1)
		h.ctr.l1Hit.Inc()
		res.Level = LevelL1
		if !write {
			res.WalkLatency = res.Latency
			return res
		}
		m1 := &l1.meta[i1]
		if m1.st == stModified || m1.st == stExclusive {
			setOwner()
		} else {
			up := h.cfg.L2Lat + h.cfg.L3Lat
			res.Latency += up
			res.CoherenceExtra += up
			h.ctr.upgrades.Inc()
			upgrade()
		}
		m1.st = stModified
		m1.dirty = true
		if i := l2.lookup(lineAddr); i >= 0 {
			l2.meta[i].st = stModified
		}
		res.WalkLatency = res.Latency
		return res
	}
	h.ctr.l1Miss.Inc()

	res.Latency += h.cfg.L2Lat
	h.ctr.l2Access.Inc()
	s2, i2 := l2.probe(lineAddr)
	if i2 >= 0 {
		l2.touch(s2, i2)
		h.ctr.l2Hit.Inc()
		m2 := &l2.meta[i2]
		st := m2.st
		if write {
			if st == stShared {
				up := h.cfg.L3Lat
				res.Latency += up
				res.CoherenceExtra += up
				h.ctr.upgrades.Inc()
				upgrade()
			} else {
				setOwner()
			}
			st = stModified
			m2.st = stModified
			m2.dirty = true
		}
		_, ev1 := l1.installIn(s1, lineAddr, st, st == stModified && write)
		h.evictL1(core, ev1)
		res.Level = LevelL2
		res.WalkLatency = res.Latency
		return res
	}
	h.ctr.l2Miss.Inc()

	res.Latency += h.cfg.L3Lat
	h.ctr.l3Access.Inc()
	s3, i3 := l3.probe(lineAddr)
	if i3 >= 0 {
		l3.touch(s3, i3)
		h.ctr.l3Hit.Inc()
		m3, d3 := &l3.meta[i3], &l3.dir[i3]
		if m3.prefetched {
			m3.prefetched = false
			h.ctr.pfUseful.Inc()
		}
		if d3.owner >= 0 && int(d3.owner) != core {
			res.Latency += h.cfg.L3Lat
			res.CoherenceExtra += h.cfg.L3Lat
			h.ctr.c2c.Inc()
			oc := int(d3.owner)
			if write {
				if h.dropPrivate(oc, lineAddr) {
					m3.dirty = true
				}
				d3.sharers &^= bit(oc)
				h.ctr.invalidations.Inc()
			} else {
				for _, a := range [2]*array{h.l1[oc], h.l2[oc]} {
					if i := a.lookup(lineAddr); i >= 0 {
						om := &a.meta[i]
						if om.dirty {
							m3.dirty = true
							om.dirty = false
						}
						om.st = stShared
					}
				}
			}
			d3.owner = -1
		}
		var st state
		if write {
			h.invalidateSharers(i3, core)
			*d3 = dirEntry{sharers: bit(core), owner: int8(core)}
			st = stModified
		} else {
			if d3.sharers&^bit(core) != 0 {
				st = stShared
				d3.owner = -1
			} else {
				st = stExclusive
				d3.owner = int8(core)
			}
			d3.sharers |= bit(core)
		}
		h.fillPrivate(core, s1, s2, lineAddr, st)
		res.Level = LevelL3
		res.WalkLatency = res.Latency
		return res
	}
	h.ctr.l3Miss.Inc()

	res.WalkLatency = res.Latency
	h.ctr.memReads.Inc()
	memLat := h.backend.ReadLine(lineAddr, now+res.Latency)
	res.Latency += memLat
	if h.cfg.Prefetch.Depth > 0 {
		h.prefetch(lineAddr, now+res.WalkLatency)
	}
	i3, ev := l3.installIn(s3, lineAddr, stInvalid, false)
	h.evictL3(ev, now+res.Latency)
	l3.dir[i3] = dirEntry{sharers: bit(core), owner: int8(core)}
	st := stExclusive
	if write {
		st = stModified
	}
	h.fillPrivate(core, s1, s2, lineAddr, st)
	res.Level = LevelMem
	return res
}

// walkProbe is the reference for Probe: L1, then L2, then L3.
func (h *Hierarchy) walkProbe(core int, addr memmap.Addr) (Level, bool) {
	lineAddr := memmap.LineAddr(addr)
	if h.l1[core].lookup(lineAddr) >= 0 {
		return LevelL1, true
	}
	if h.l2[core].lookup(lineAddr) >= 0 {
		return LevelL2, true
	}
	if h.l3.lookup(lineAddr) >= 0 {
		return LevelL3, true
	}
	return LevelMem, false
}

// TestDirectoryWalkMatchesReference drives random multi-core reads,
// writes and probes through Access and Probe on one hierarchy and
// through the reference walk on a twin, on a geometry small enough that
// L2 and L3 evictions back-invalidate all the time. Every result, every
// probe answer, the backend traffic, every counter and the final state
// of every array must agree, and the invariants must hold after every
// access.
func TestDirectoryWalkMatchesReference(t *testing.T) {
	const cores = 4
	for _, depth := range []int{0, 1} {
		for seed := uint64(1); seed <= 12; seed++ {
			got, gotBe, gotSt := smallH(cores)
			want, wantBe, wantSt := smallH(cores)
			got.cfg.Prefetch.Depth, want.cfg.Prefetch.Depth = depth, depth
			r := sim.NewRand(seed)
			for i := 0; i < 3000; i++ {
				core := r.Intn(cores)
				// 96 lines spread over every L3 set, hot enough to
				// share and write-share across cores.
				addr := memmap.Addr(r.Intn(96)*64*3 + r.Intn(8)*8)
				if r.Intn(6) == 0 {
					gl, gok := got.Probe(core, addr)
					wl, wok := want.walkProbe(core, addr)
					if gl != wl || gok != wok {
						t.Fatalf("depth %d seed %d step %d: Probe(%d, %#x) = %v %v, reference %v %v",
							depth, seed, i, core, addr, gl, gok, wl, wok)
					}
					continue
				}
				write := r.Intn(3) == 0
				g := got.Access(core, addr, write, uint64(i))
				w := want.walkAccess(core, addr, write, uint64(i))
				if g != w {
					t.Fatalf("depth %d seed %d step %d: Access(%d, %#x, %v) = %+v, reference %+v",
						depth, seed, i, core, addr, write, g, w)
				}
				if err := got.CheckInvariants(); err != nil {
					t.Fatalf("depth %d seed %d step %d: %v", depth, seed, i, err)
				}
			}
			if !reflect.DeepEqual(gotBe, wantBe) {
				t.Fatalf("depth %d seed %d: backend traffic differs", depth, seed)
			}
			if g, w := gotSt.Snapshot(), wantSt.Snapshot(); !reflect.DeepEqual(g, w) {
				t.Fatalf("depth %d seed %d: counters %v, reference %v", depth, seed, g, w)
			}
			if !reflect.DeepEqual(got.l1, want.l1) || !reflect.DeepEqual(got.l2, want.l2) ||
				!reflect.DeepEqual(got.l3, want.l3) {
				t.Fatalf("depth %d seed %d: final array state differs", depth, seed)
			}
			for _, c := range []string{"cache.inclusion.l1_backinval", "cache.inclusion.l3_backinval",
				"cache.coherence.upgrades", "cache.coherence.c2c", "cache.l1.hit", "cache.l2.hit", "cache.l3.hit"} {
				if gotSt.Get(c) == 0 {
					t.Fatalf("depth %d seed %d: %s never happened", depth, seed, c)
				}
			}
		}
	}
}
