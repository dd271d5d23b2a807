package hmc

import (
	"testing"
	"testing/quick"

	"graphpim/internal/hmcatomic"
	"graphpim/internal/memmap"
	"graphpim/internal/sim"
)

func newCube() (*Cube, *sim.Stats) {
	st := sim.NewStats()
	return New(DefaultConfig(), st), st
}

func TestVaultBankMapping(t *testing.T) {
	c, _ := newCube()
	// Consecutive 64B blocks interleave across vaults.
	v0, _ := c.VaultBank(0)
	v1, _ := c.VaultBank(64)
	if v0 == v1 {
		t.Fatal("consecutive blocks mapped to the same vault")
	}
	// Every address maps within range, and mapping is block-stable.
	f := func(a uint64) bool {
		addr := memmap.Addr(a)
		v, b := c.VaultBank(addr)
		if v < 0 || v >= 32 || b < 0 || b >= 16 {
			return false
		}
		v2, b2 := c.VaultBank(addr | 63)
		return v == v2 && b == b2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFlitsPerCycle(t *testing.T) {
	c, _ := newCube()
	// 4 links x 120 GB/s = 480 GB/s; at 2GHz that is 240 B/cycle = 15
	// FLITs/cycle.
	if got := c.flitsPerCycle; got < 14.9 || got > 15.1 {
		t.Fatalf("FlitsPerCycle = %v, want 15", got)
	}
	cfg := DefaultConfig()
	cfg.LinkBWScale = 0.5
	half := New(cfg, sim.NewStats())
	if got := half.flitsPerCycle; got < 7.4 || got > 7.6 {
		t.Fatalf("half-BW FlitsPerCycle = %v, want 7.5", got)
	}
}

func TestReadLatencyComposition(t *testing.T) {
	c, _ := newCube()
	lat := c.ReadLine(0x1000, 0)
	// Must include both link latencies plus tRCD+tCL (28+28 cycles).
	min := 2*10 + 56
	if lat < uint64(min) {
		t.Fatalf("read latency %d below physical minimum %d", lat, min)
	}
	if lat > 200 {
		t.Fatalf("unloaded read latency %d implausibly high", lat)
	}
}

func TestBankConflictSerializes(t *testing.T) {
	c, _ := newCube()
	// Two back-to-back reads to the same bank: second must wait ~tRC.
	l1 := c.ReadLine(0x0, 0)
	l2 := c.ReadLine(0x0, 0)
	if l2 <= l1 {
		t.Fatalf("bank conflict not modeled: l1=%d l2=%d", l1, l2)
	}
	// Reads to different vaults do not conflict on banks (only slightly
	// on the link).
	c2, _ := newCube()
	a := c2.ReadLine(0x0, 0)
	b := c2.ReadLine(0x40, 0) // next vault
	if b > a+5 {
		t.Fatalf("cross-vault reads should not serialize: a=%d b=%d", a, b)
	}
}

func TestLinkOccupancy(t *testing.T) {
	c, st := newCube()
	for i := 0; i < 100; i++ {
		// Spread over vaults so banks are not the bottleneck.
		c.ReadLine(memmap.Addr(i*64), 0)
	}
	if st.Get("hmc.flits.req") != 100 || st.Get("hmc.flits.rsp") != 500 {
		t.Fatalf("FLIT counters: req=%d rsp=%d", st.Get("hmc.flits.req"), st.Get("hmc.flits.rsp"))
	}
	// 500 response FLITs at 15/cycle need at least ~33 cycles; the last
	// read must observe response-link queuing beyond the unloaded case.
	unloaded, _ := newCube()
	if c.ReadLine(0x7000, 0) <= unloaded.ReadLine(0x7000, 0) {
		t.Fatal("response link queuing not visible under load")
	}
}

func TestAtomicTiming(t *testing.T) {
	c, _ := newCube()
	tm := c.Atomic(hmcatomic.CasEQ8, 0x2000, hmcatomic.Value{}, 100)
	if tm.Accepted < 100 || tm.Accepted > 120 {
		t.Fatalf("Accepted = %d, want shortly after 100", tm.Accepted)
	}
	if tm.ResponseAt <= tm.Accepted {
		t.Fatal("response cannot precede request acceptance")
	}
	// Round trip should include bank access and FU latency.
	if tm.ResponseAt-100 < 2*10+56+2 {
		t.Fatalf("atomic round trip %d too fast", tm.ResponseAt-100)
	}
}

func TestAtomicBankLock(t *testing.T) {
	c, _ := newCube()
	c.Atomic(hmcatomic.TwoAdd8, 0x0, hmcatomic.Value{}, 0)
	// A read to the same bank right after must stall behind the RMW.
	lat := c.ReadLine(0x0, 0)
	fresh, _ := newCube()
	if lat <= fresh.ReadLine(0x0, 0) {
		t.Fatal("atomic did not lock the bank")
	}
}

func TestFUContention(t *testing.T) {
	// With one FU per vault, many atomics to the same vault must queue
	// on the FU beyond bank availability.
	cfg := DefaultConfig()
	cfg.IntFUsPerVault = 1
	c := New(cfg, sim.NewStats())
	stats16 := sim.NewStats()
	c16 := New(DefaultConfig(), stats16)
	var last1, last16 uint64
	for i := 0; i < 64; i++ {
		// Same vault (stride NumVaults*64), different banks.
		addr := memmap.Addr(i * 32 * 64)
		last1 = c.Atomic(hmcatomic.TwoAdd8, addr, hmcatomic.Value{}, 0).ResponseAt
		last16 = c16.Atomic(hmcatomic.TwoAdd8, addr, hmcatomic.Value{}, 0).ResponseAt
	}
	if last1 < last16 {
		t.Fatalf("1-FU config finished earlier (%d) than 16-FU (%d)", last1, last16)
	}
}

func TestFPAtomicNeedsFPFU(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FPFUsPerVault = 0
	c := New(cfg, sim.NewStats())
	defer func() {
		if recover() == nil {
			t.Fatal("FP atomic without FP FU did not panic")
		}
	}()
	c.Atomic(hmcatomic.ExtFPAdd64, 0, hmcatomic.Value{}, 0)
}

func TestClosedPageHasNoRowHits(t *testing.T) {
	c, st := newCube()
	c.ReadLine(0x10000, 0)
	c.ReadLine(0x10000, 5000)
	if st.Get("hmc.dram.row_hits") != 0 {
		t.Fatal("closed-page policy recorded row hits")
	}
	if st.Get("hmc.dram.activates") != 2 {
		t.Fatalf("activates = %d", st.Get("hmc.dram.activates"))
	}
}

func TestUCAccessCounters(t *testing.T) {
	c, st := newCube()
	c.UCRead(0x100, 0)
	c.UCWrite(0x100, 0)
	if st.Get("hmc.uc.reads") != 1 || st.Get("hmc.uc.writes") != 1 {
		t.Fatalf("UC counters: %s", st.String())
	}
	// UC read moves 3 FLITs total vs 6 for a line read: cheaper.
	if st.Get("hmc.flits.req")+st.Get("hmc.flits.rsp") != 3+3 {
		t.Fatalf("UC FLITs: req=%d rsp=%d", st.Get("hmc.flits.req"), st.Get("hmc.flits.rsp"))
	}
}

func TestWriteLineIsPostedButOccupiesResources(t *testing.T) {
	c, st := newCube()
	for i := 0; i < 10; i++ {
		c.WriteLine(0x0, 0) // same bank
	}
	if st.Get("hmc.writes") != 10 || st.Get("hmc.dram.activates") != 10 {
		t.Fatalf("write counters: %s", st.String())
	}
	// The bank is now busy far in the future; a read sees it.
	if lat := c.ReadLine(0x0, 0); lat < 10*55 {
		t.Fatalf("writebacks did not occupy the bank: read lat %d", lat)
	}
}

func TestMonotonicTimeProperty(t *testing.T) {
	// Property: issuing requests at increasing times never yields a
	// response earlier than a previous response to the same bank.
	f := func(seed uint64) bool {
		c, _ := newCube()
		r := sim.NewRand(seed)
		var lastRsp uint64
		now := uint64(0)
		for i := 0; i < 200; i++ {
			now += uint64(r.Intn(10))
			tm := c.Atomic(hmcatomic.TwoAdd8, 0x40, hmcatomic.Value{}, now)
			if tm.ResponseAt < lastRsp {
				return false
			}
			lastRsp = tm.ResponseAt
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestNewValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumVaults = 33
	func() {
		defer func() {
			if recover() == nil {
				t.Error("non-power-of-two vaults did not panic")
			}
		}()
		New(cfg, sim.NewStats())
	}()
	cfg = DefaultConfig()
	cfg.IntFUsPerVault = 0
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero FUs did not panic")
			}
		}()
		New(cfg, sim.NewStats())
	}()
}
