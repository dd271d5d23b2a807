package cache

import (
	"strings"
	"testing"
	"testing/quick"

	"graphpim/internal/memmap"
	"graphpim/internal/sim"
)

// fakeBackend records off-chip traffic and returns a fixed latency.
type fakeBackend struct {
	reads, writes []memmap.Addr
	lat           uint64
}

func (f *fakeBackend) ReadLine(a memmap.Addr, _ uint64) uint64 {
	f.reads = append(f.reads, a)
	return f.lat
}

func (f *fakeBackend) WriteLine(a memmap.Addr, _ uint64) {
	f.writes = append(f.writes, a)
}

func newH(cores int) (*Hierarchy, *fakeBackend, *sim.Stats) {
	be := &fakeBackend{lat: 100}
	st := sim.NewStats()
	return New(DefaultConfig(cores), be, st), be, st
}

// smallH returns a tiny hierarchy so eviction paths are exercised quickly.
func smallH(cores int) (*Hierarchy, *fakeBackend, *sim.Stats) {
	be := &fakeBackend{lat: 100}
	st := sim.NewStats()
	cfg := Config{
		NumCores: cores, LineSize: 64,
		L1Size: 512, L1Ways: 2, L1Lat: 4, // 8 lines
		L2Size: 1024, L2Ways: 2, L2Lat: 12, // 16 lines
		L3Size: 4096, L3Ways: 4, L3Lat: 36, // 64 lines
	}
	return New(cfg, be, st), be, st
}

func TestColdMissThenHit(t *testing.T) {
	h, be, _ := newH(2)
	r := h.Access(0, 0x1000, false, 0)
	if r.Level != LevelMem || r.Latency != 4+12+36+100 {
		t.Fatalf("cold miss: %+v", r)
	}
	if len(be.reads) != 1 || be.reads[0] != 0x1000 {
		t.Fatalf("backend reads = %v", be.reads)
	}
	r = h.Access(0, 0x1008, false, 10)
	if r.Level != LevelL1 || r.Latency != 4 {
		t.Fatalf("L1 hit after fill: %+v", r)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSameLineDifferentWordsShareLine(t *testing.T) {
	h, be, _ := newH(1)
	h.Access(0, 0x2000, false, 0)
	h.Access(0, 0x203F, false, 1)
	if len(be.reads) != 1 {
		t.Fatalf("expected one line fill, got %d", len(be.reads))
	}
}

func TestReadSharingThenUpgrade(t *testing.T) {
	h, _, st := newH(2)
	h.Access(0, 0x3000, false, 0)
	h.Access(1, 0x3000, false, 1) // now shared between cores
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Write by core 0 must invalidate core 1's copy.
	r := h.Access(0, 0x3000, true, 2)
	if r.Level != LevelL1 {
		t.Fatalf("upgrade should hit L1: %+v", r)
	}
	if r.CoherenceExtra == 0 {
		t.Fatal("upgrade must pay a coherence penalty")
	}
	if st.Get("cache.coherence.invalidations") == 0 {
		t.Fatal("no invalidation recorded")
	}
	if lvl, ok := h.Probe(1, 0x3000); ok && lvl <= LevelL2 {
		t.Fatal("core 1 still has a private copy after invalidation")
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteDirtyFetch(t *testing.T) {
	h, _, st := newH(2)
	h.Access(0, 0x4000, true, 0) // core 0 owns M
	r := h.Access(1, 0x4000, false, 1)
	if r.Level != LevelL3 {
		t.Fatalf("remote fetch should resolve at L3: %+v", r)
	}
	if st.Get("cache.coherence.c2c") != 1 {
		t.Fatalf("c2c = %d", st.Get("cache.coherence.c2c"))
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteInvalidatesRemoteOwner(t *testing.T) {
	h, _, _ := newH(2)
	h.Access(0, 0x5000, true, 0)
	h.Access(1, 0x5000, true, 1)
	if _, ok := h.Probe(0, 0x5000); ok {
		if lvl, _ := h.Probe(0, 0x5000); lvl <= LevelL2 {
			t.Fatal("core 0 retains a private copy after remote write")
		}
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestL1EvictionMergesDirtyIntoL2(t *testing.T) {
	h, _, _ := smallH(1)
	// L1: 8 lines in 4 sets x 2 ways. Write line A, then fill its set
	// with two more lines mapping to the same set (stride = 4 sets * 64B).
	h.Access(0, 0x0000, true, 0)
	h.Access(0, 0x0100, false, 1)
	h.Access(0, 0x0200, false, 2) // evicts 0x0000 from L1
	// The line must survive in L2 (hit at L2, not memory).
	r := h.Access(0, 0x0000, false, 3)
	if r.Level != LevelL2 {
		t.Fatalf("dirty L1 victim not found in L2: %+v", r)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestL3EvictionBackInvalidatesAndWritesBack(t *testing.T) {
	// Deliberately give the L3 fewer sets than the L2 so that an L3
	// eviction can hit a line still resident in a private cache.
	be := &fakeBackend{lat: 100}
	st := sim.NewStats()
	cfg := Config{
		NumCores: 1, LineSize: 64,
		L1Size: 512, L1Ways: 2, L1Lat: 4, // 4 sets
		L2Size: 1024, L2Ways: 2, L2Lat: 12, // 8 sets
		L3Size: 1024, L3Ways: 4, L3Lat: 36, // 4 sets
	}
	h := New(cfg, be, st)
	// Line numbers 0,4,8,12,16 all map to L3 set 0 but alternate between
	// two L2 sets, so line 0 is still in the L2 when the L3 evicts it.
	h.Access(0, 0x0000, true, 0)
	for i := 1; i <= 4; i++ {
		h.Access(0, memmap.Addr(i*4*64), false, uint64(i))
	}
	if st.Get("cache.inclusion.l3_backinval") == 0 {
		t.Fatal("L3 eviction did not back-invalidate private copies")
	}
	if len(be.writes) == 0 {
		t.Fatal("dirty line evicted from L3 without writeback")
	}
	if lvl, ok := h.Probe(0, 0x0000); ok && lvl != LevelMem {
		t.Fatalf("evicted line still present at %v", lvl)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestProbeDoesNotMutate(t *testing.T) {
	h, be, _ := newH(2)
	if _, ok := h.Probe(0, 0x9000); ok {
		t.Fatal("probe of absent line reported present")
	}
	if len(be.reads) != 0 {
		t.Fatal("probe triggered a memory read")
	}
	h.Access(0, 0x9000, false, 0)
	if lvl, ok := h.Probe(0, 0x9000); !ok || lvl != LevelL1 {
		t.Fatalf("probe after fill: %v %v", lvl, ok)
	}
	// Probe from the other core sees it only in L3.
	if lvl, ok := h.Probe(1, 0x9000); !ok || lvl != LevelL3 {
		t.Fatalf("remote probe: %v %v", lvl, ok)
	}
}

func TestMPKICounters(t *testing.T) {
	h, _, st := newH(1)
	for i := 0; i < 100; i++ {
		h.Access(0, memmap.Addr(i*64), false, uint64(i))
	}
	if st.Get("cache.l1.miss") != 100 || st.Get("cache.mem.reads") != 100 {
		t.Fatalf("cold-stream counters wrong: %s", st.String())
	}
	for i := 0; i < 100; i++ {
		h.Access(0, memmap.Addr(i*64), false, uint64(200+i))
	}
	if st.Get("cache.l1.hit") != 100 {
		t.Fatalf("warm-stream hits = %d", st.Get("cache.l1.hit"))
	}
}

// Property test: after any random access sequence from any cores, all
// coherence and inclusion invariants hold.
func TestInvariantsUnderRandomTraffic(t *testing.T) {
	f := func(seed uint64) bool {
		h, _, _ := smallH(4)
		r := sim.NewRand(seed)
		for i := 0; i < 3000; i++ {
			core := r.Intn(4)
			// 32 distinct lines over a few L3 sets to force conflicts.
			addr := memmap.Addr(r.Intn(32) * 64 * 17)
			h.Access(core, addr, r.Intn(2) == 0, uint64(i))
		}
		return h.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: single-writer/multi-reader — immediately after a write by core
// c, no other core's probe can find the line in a private level.
func TestSingleWriterProperty(t *testing.T) {
	f := func(seed uint64) bool {
		h, _, _ := smallH(4)
		r := sim.NewRand(seed)
		for i := 0; i < 1500; i++ {
			core := r.Intn(4)
			addr := memmap.Addr(r.Intn(16) * 64)
			write := r.Intn(3) == 0
			h.Access(core, addr, write, uint64(i))
			if write {
				for o := 0; o < 4; o++ {
					if o == core {
						continue
					}
					if lvl, ok := h.Probe(o, addr); ok && lvl <= LevelL2 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestLevelStrings(t *testing.T) {
	for _, l := range []Level{LevelL1, LevelL2, LevelL3, LevelMem} {
		if l.String() == "" {
			t.Errorf("level %d has empty string", l)
		}
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with 0 cores did not panic")
		}
	}()
	New(DefaultConfig(0), &fakeBackend{}, sim.NewStats())
}

// populate warms a hierarchy with a mix of shared and exclusive lines so
// the corruption tests have real directory state to damage.
func populate(h *Hierarchy) {
	n := h.cfg.NumCores
	for i := 0; i < 64; i++ {
		h.Access(i%n, memmap.Addr(0x10000+i*64), i%5 == 0, uint64(i))
	}
	for c := 0; c < n; c++ {
		h.Access(c, 0x10000, false, uint64(100+c)) // shared line when n > 1
	}
}

func TestCorruptDirectoryForTestCaught(t *testing.T) {
	h, _, _ := newH(2)
	populate(h)
	if err := h.CheckInvariants(); err != nil {
		t.Fatalf("clean hierarchy failed audit: %v", err)
	}
	if !h.CorruptDirectoryForTest() {
		t.Fatal("no valid L3 line to corrupt")
	}
	if err := h.CheckInvariants(); err == nil {
		t.Fatal("corrupted directory passed CheckInvariants")
	}
}

func TestDirtySharedLineCaught(t *testing.T) {
	h, _, _ := newH(2)
	populate(h)
	// Force a dirty bit onto a Shared private line.
	l1 := h.l1[0]
	i := l1.lookup(0x10000)
	if i < 0 || l1.meta[i].st != stShared {
		t.Fatalf("expected a Shared L1 copy of 0x10000, got slot %d", i)
	}
	l1.meta[i].dirty = true
	if err := h.CheckInvariants(); err == nil {
		t.Fatal("dirty Shared line passed CheckInvariants")
	}
}

func TestInvalidSlotStateCaught(t *testing.T) {
	h, _, _ := newH(1)
	populate(h)
	// An invalid L3 slot that still names a sharer is stale directory
	// state a future install would resurrect.
	for i := range h.l3.keys {
		if !h.l3.valid(i) {
			h.l3.dir[i].sharers = bit(0)
			if err := h.CheckInvariants(); err == nil {
				t.Fatal("invalid slot with sharers passed CheckInvariants")
			}
			return
		}
	}
	t.Skip("no invalid L3 slot available")
}

func TestValidLineInStateICaught(t *testing.T) {
	h, _, _ := newH(1)
	populate(h)
	l1 := h.l1[0]
	for i := range l1.keys {
		if l1.valid(i) {
			l1.meta[i] = slot{st: stInvalid}
			if err := h.CheckInvariants(); err == nil {
				t.Fatal("valid line in state I passed CheckInvariants")
			}
			return
		}
	}
	t.Fatal("no valid L1 line")
}

// TestDuplicateOrderNibbleCaught: an order word that names one way twice
// (and so drops another) would leave a line that is never evicted.
func TestDuplicateOrderNibbleCaught(t *testing.T) {
	h, _, _ := newH(1)
	populate(h)
	if err := h.CheckInvariants(); err != nil {
		t.Fatalf("clean hierarchy failed audit: %v", err)
	}
	s, _ := h.l3.probe(0x10000)
	o := h.l3.order[s]
	h.l3.order[s] = o&^0xF0 | (o&0xF)<<4 // nibble 1 := nibble 0
	if err := h.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "order word") {
		t.Fatalf("order word with a duplicated way: CheckInvariants = %v", err)
	}
}

// TestFlippedOccupancyBitCaught: an occupancy bit that disagrees with the
// slot's key would make the victim an occupied way, or skip an empty one.
func TestFlippedOccupancyBitCaught(t *testing.T) {
	h, _, _ := newH(1)
	populate(h)
	if err := h.CheckInvariants(); err != nil {
		t.Fatalf("clean hierarchy failed audit: %v", err)
	}
	s, i := h.l1[0].probe(0x10000)
	if i < 0 {
		t.Fatal("0x10000 not in L1")
	}
	h.l1[0].occ[s] ^= 1 << (i - s*h.l1[0].ways)
	if err := h.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "occupancy") {
		t.Fatalf("cleared occupancy bit of a valid line: CheckInvariants = %v", err)
	}
}
