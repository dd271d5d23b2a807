package lpddr

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"graphpim/internal/hmcatomic"
	"graphpim/internal/memmap"
	"graphpim/internal/sim"
)

func newSystem(t *testing.T, cfg Config) (*System, *sim.Stats) {
	t.Helper()
	st := sim.NewStats()
	return cfg.New(st).(*System), st
}

// TestValidate exercises each rejected field.
func TestValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Channels = 0 },
		func(c *Config) { c.Channels = 3 },
		func(c *Config) { c.BankGroupsPerChannel = 5 },
		func(c *Config) { c.BanksPerGroup = 0 },
		func(c *Config) { c.TRCDNs = 0 },
		func(c *Config) { c.TRASNs = -1 },
		func(c *Config) { c.ChannelGBs = 0 },
		func(c *Config) { c.PIMClockDiv = 0 },
		func(c *Config) { c.MACOpPIMCycles = 0 },
		func(c *Config) { c.RowBytes = 96 },
		func(c *Config) { c.RowBytes = 32 },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d: invalid config accepted", i)
		}
	}
}

// TestFPCapabilityNegotiation pins the capability surface: with HasFP
// the whole command set offloads; without it exactly the FP-extension
// commands are refused, and offloading one anyway is a loud modeling
// error.
func TestFPCapabilityNegotiation(t *testing.T) {
	full, _ := newSystem(t, DefaultConfig())
	for _, op := range hmcatomic.AllOps() {
		if !full.CanOffload(op) {
			t.Fatalf("FP-capable MAC refuses %v", op)
		}
	}
	cfg := DefaultConfig()
	cfg.HasFP = false
	fpless, _ := newSystem(t, cfg)
	for _, op := range hmcatomic.AllOps() {
		if fpless.CanOffload(op) == hmcatomic.IsFloat(op) {
			t.Fatalf("FP-less MAC CanOffload(%v) = %v", op, fpless.CanOffload(op))
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("FP atomic on an FP-less MAC did not panic")
		}
	}()
	fpless.Atomic(hmcatomic.ExtFPAdd64, 0, hmcatomic.Value{}, 0)
}

// TestAtomicClockDomain pins the DVFS mapping: every atomic starts on a
// PIM-domain clock edge and holds the MAC for the domain occupancy
// scaled by the divisor, FP ops fpMACMult times as long.
func TestAtomicClockDomain(t *testing.T) {
	cfg := DefaultConfig()
	s, st := newSystem(t, cfg)
	s.Atomic(hmcatomic.TwoAdd8, 0, hmcatomic.Value{}, 0)
	base := cfg.MACOpPIMCycles * cfg.PIMClockDiv
	if busy := st.Get("lpddr.mac.busy_cycles"); busy != base {
		t.Fatalf("integer op MAC busy = %d, want %d", busy, base)
	}
	s.Atomic(hmcatomic.ExtFPAdd64, 0, hmcatomic.Value{}, 0)
	if busy := st.Get("lpddr.mac.busy_cycles"); busy != base+base*fpMACMult {
		t.Fatalf("after FP op MAC busy = %d, want %d", busy, base+base*fpMACMult)
	}
	for ch := range s.macFree {
		for g, free := range s.macFree[ch] {
			if free%cfg.PIMClockDiv != 0 {
				t.Fatalf("channel %d group %d free time %d off the clock grid", ch, g, free)
			}
		}
	}
	if err := s.Audit(10_000); err != nil {
		t.Fatalf("audit: %v", err)
	}
}

// TestMACContention serializes atomics on one bank group's unit: the
// last response must trail the first by at least the aggregate
// occupancy — one MAC per group is the throughput limiter.
func TestMACContention(t *testing.T) {
	cfg := DefaultConfig()
	s, _ := newSystem(t, cfg)
	const n = 32
	var first, last uint64
	for i := 0; i < n; i++ {
		// Same channel 0, same bank group (banks 0..3): stride by one
		// channel round so the bank varies within the group but the
		// group does not.
		addr := memmap.Addr(i % cfg.BanksPerGroup * 64 * cfg.Channels)
		tm := s.Atomic(hmcatomic.TwoAdd8, addr, hmcatomic.Value{}, 0)
		if i == 0 {
			first = tm.ResponseAt
		}
		last = tm.ResponseAt
	}
	occ := cfg.MACOpPIMCycles * cfg.PIMClockDiv
	if last < first+(n-1)*occ {
		t.Fatalf("no MAC serialization: first %d, last %d, want gap >= %d", first, last, (n-1)*occ)
	}
}

// TestLatencyWeakMonotonicity is the backend property test: issuing
// requests at non-decreasing times to the same address never yields a
// response earlier than a previous one.
func TestLatencyWeakMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		s, _ := newSystem(t, DefaultConfig())
		r := rand.New(rand.NewSource(seed))
		var now, lastRsp uint64
		for i := 0; i < 200; i++ {
			now += uint64(r.Intn(10))
			op := hmcatomic.TwoAdd8
			if r.Intn(4) == 0 {
				op = hmcatomic.ExtFPAdd64
			}
			tm := s.Atomic(op, 0x40, hmcatomic.Value{}, now)
			if tm.ResponseAt < lastRsp || tm.Accepted < now+2 {
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

// TestFunctionalMatchesHostModel drives a randomized atomic stream
// through a Functional system and a host-side reference: offloading to
// a bank-group MAC may change timing, never values or flags.
func TestFunctionalMatchesHostModel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Functional = true
	s, _ := newSystem(t, cfg)

	host := map[memmap.Addr]hmcatomic.Value{}
	r := rand.New(rand.NewSource(42))
	addrs := make([]memmap.Addr, 32)
	for i := range addrs {
		addrs[i] = memmap.Addr(r.Intn(1<<20) * 16)
	}
	var now uint64
	for step := 0; step < 5000; step++ {
		op := hmcatomic.Op(r.Intn(hmcatomic.NumOps))
		addr := addrs[r.Intn(len(addrs))]
		imm := hmcatomic.Value{Lo: r.Uint64(), Hi: r.Uint64()}
		want := hmcatomic.Apply(op, host[addr], imm)
		if want.Wrote {
			host[addr] = want.New
		}
		tm := s.Atomic(op, addr, imm, now)
		if tm.Flag != want.Flag {
			t.Fatalf("step %d: %v at %#x flag %v, host model %v", step, op, addr, tm.Flag, want.Flag)
		}
		if got := s.Value(addr); got != host[addr] {
			t.Fatalf("step %d: %v at %#x left %+v, host model %+v", step, op, addr, got, host[addr])
		}
		now += uint64(r.Intn(8))
	}
	if err := s.Audit(now); err != nil {
		t.Fatalf("audit after functional stream: %v", err)
	}
}

// TestCountersAndAuditRandomized drives a randomized request mix and
// checks the audit's conservation identities at a quiescent point.
func TestCountersAndAuditRandomized(t *testing.T) {
	for _, open := range []bool{true, false} {
		cfg := DefaultConfig()
		cfg.OpenPage = open
		s, st := newSystem(t, cfg)
		rng := rand.New(rand.NewSource(7))
		var now uint64
		for i := 0; i < 4000; i++ {
			addr := memmap.Addr(rng.Uint64() >> 44 << 3)
			now += uint64(rng.Intn(6))
			switch rng.Intn(5) {
			case 0:
				s.ReadLine(memmap.LineAddr(addr), now)
			case 1:
				s.WriteLine(memmap.LineAddr(addr), now)
			case 2:
				s.UCRead(addr, now)
			case 3:
				s.UCWrite(addr, now)
			default:
				s.Atomic(hmcatomic.TwoAdd8, addr, hmcatomic.Value{}, now)
			}
		}
		if err := s.Audit(now); err != nil {
			t.Fatalf("open=%v: audit after clean run: %v", open, err)
		}
		total := st.Get("lpddr.reads") + st.Get("lpddr.writes") +
			st.Get("lpddr.uc.reads") + st.Get("lpddr.uc.writes") + st.Get("lpddr.atomics")
		if total != 4000 {
			t.Fatalf("open=%v: request counters sum to %d, want 4000", open, total)
		}
		if open && st.Get("lpddr.dram.row_hits") == 0 {
			t.Errorf("open-page run produced no row hits")
		}
		if !open && st.Get("lpddr.dram.row_hits") != 0 {
			t.Errorf("closed-page run produced row hits")
		}
	}
}

// TestAuditCatchesBusOverReservation proves the fault injector trips
// the lane audit.
func TestAuditCatchesBusOverReservation(t *testing.T) {
	s, _ := newSystem(t, DefaultConfig())
	s.ReadLine(0, 0)
	s.bus[0].CorruptForTest()
	err := s.Audit(100)
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("corrupted bus lane not caught: %v", err)
	}
}
