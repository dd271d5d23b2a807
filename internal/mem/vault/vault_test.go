package vault

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"graphpim/internal/hmcatomic"
	"graphpim/internal/mem"
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
		func(c *Config) { c.Vaults = 0 },
		func(c *Config) { c.Vaults = 3 },
		func(c *Config) { c.BanksPerVault = 6 },
		func(c *Config) { c.TRCDNs = 0 },
		func(c *Config) { c.TRASNs = -1 },
		func(c *Config) { c.LinkGBs = 0 },
		func(c *Config) { c.IssueGap = 0 },
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

// TestGeneralPurposeCapability pins the capability surface of the
// scalar cores: every fixed-function command and the generic bundle
// tier are accepted.
func TestGeneralPurposeCapability(t *testing.T) {
	s, _ := newSystem(t, DefaultConfig())
	for _, op := range hmcatomic.AllOps() {
		if !s.CanOffload(op) {
			t.Fatalf("general-purpose core refuses %v", op)
		}
	}
	if !s.CanOffloadBundle() {
		t.Fatal("general-purpose core refuses the bundle tier")
	}
	var _ mem.BundleBackend = s // compile-time tier check
}

// TestBundleLengthsAndIssueAccounting pins the instruction-cost model:
// int, CAS-class, FP, and generic bundles issue their configured
// instruction counts, each holding the core for the issue gap, with the
// per-vault ledger agreeing with the aggregate counters.
func TestBundleLengthsAndIssueAccounting(t *testing.T) {
	cfg := DefaultConfig()
	s, st := newSystem(t, cfg)
	steps := []struct {
		run    func()
		instrs uint64
	}{
		{func() { s.Atomic(hmcatomic.TwoAdd8, 0, hmcatomic.Value{}, 0) }, defaultIntInstrs},
		{func() { s.Atomic(hmcatomic.CasEQ8, 0, hmcatomic.Value{}, 0) }, defaultCASInstrs},
		{func() { s.Atomic(hmcatomic.Eq16, 0, hmcatomic.Value{}, 0) }, defaultCASInstrs},
		{func() { s.Atomic(hmcatomic.ExtFPAdd64, 0, hmcatomic.Value{}, 0) }, defaultFPInstrs},
		{func() { s.AtomicBundle(0, 0) }, defaultBundleInstrs},
	}
	var want uint64
	for i, step := range steps {
		step.run()
		want += step.instrs
		if got := st.Get("vault.core.instrs"); got != want {
			t.Fatalf("step %d: core instrs = %d, want %d", i, got, want)
		}
	}
	if busy := st.Get("vault.core.busy_cycles"); busy != want*cfg.IssueGap {
		t.Fatalf("core busy = %d, want %d instrs x gap %d", busy, want, cfg.IssueGap)
	}
	if got := st.Get("vault.atomics"); got != uint64(len(steps)) {
		t.Fatalf("atomics = %d, want %d (bundles included)", got, len(steps))
	}
	if got := st.Get("vault.bundles"); got != 1 {
		t.Fatalf("bundles = %d, want 1", got)
	}
	var ledger uint64
	for _, n := range s.vaultInstrs {
		ledger += n
	}
	if ledger != want {
		t.Fatalf("per-vault ledger = %d, want %d", ledger, want)
	}
	if err := s.Audit(100_000); err != nil {
		t.Fatalf("audit: %v", err)
	}
}

// TestCoreSerialization: one scalar core serves a whole vault, so
// atomics to the same vault serialize on it even across banks.
func TestCoreSerialization(t *testing.T) {
	cfg := DefaultConfig()
	s, _ := newSystem(t, cfg)
	const n = 32
	var first, last uint64
	for i := 0; i < n; i++ {
		// Same vault 0, varying banks: stride by one vault round.
		addr := memmap.Addr(i % cfg.BanksPerVault * 64 * cfg.Vaults)
		tm := s.Atomic(hmcatomic.TwoAdd8, addr, hmcatomic.Value{}, 0)
		if i == 0 {
			first = tm.ResponseAt
		}
		last = tm.ResponseAt
	}
	occ := uint64(defaultIntInstrs) * cfg.IssueGap
	if last < first+(n-1)*occ {
		t.Fatalf("no core serialization: first %d, last %d, want gap >= %d", first, last, (n-1)*occ)
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
			var tm mem.AtomicTiming
			switch r.Intn(3) {
			case 0:
				tm = s.Atomic(hmcatomic.TwoAdd8, 0x40, hmcatomic.Value{}, now)
			case 1:
				tm = s.Atomic(hmcatomic.ExtFPAdd64, 0x40, hmcatomic.Value{}, now)
			default:
				tm = s.AtomicBundle(0x40, now)
			}
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

// TestFunctionalMatchesHostModel: software-emulated atomics on the
// vault cores compute exactly the host semantics; only timing differs.
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

// TestCountersAndAuditRandomized drives a randomized request mix —
// bundles included — and checks the audit's conservation identities.
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
			switch rng.Intn(6) {
			case 0:
				s.ReadLine(memmap.LineAddr(addr), now)
			case 1:
				s.WriteLine(memmap.LineAddr(addr), now)
			case 2:
				s.UCRead(addr, now)
			case 3:
				s.UCWrite(addr, now)
			case 4:
				s.Atomic(hmcatomic.TwoAdd8, addr, hmcatomic.Value{}, now)
			default:
				s.AtomicBundle(addr, now)
			}
		}
		if err := s.Audit(now); err != nil {
			t.Fatalf("open=%v: audit after clean run: %v", open, err)
		}
		total := st.Get("vault.reads") + st.Get("vault.writes") +
			st.Get("vault.uc.reads") + st.Get("vault.uc.writes") + st.Get("vault.atomics")
		if total != 4000 {
			t.Fatalf("open=%v: request counters sum to %d, want 4000", open, total)
		}
		if st.Get("vault.bundles") == 0 {
			t.Fatalf("open=%v: randomized mix issued no bundles", open)
		}
	}
}

// TestAuditCatchesLinkOverReservation proves the fault injector trips
// the lane audit.
func TestAuditCatchesLinkOverReservation(t *testing.T) {
	s, _ := newSystem(t, DefaultConfig())
	s.ReadLine(0, 0)
	s.reqLink.CorruptForTest()
	err := s.Audit(100)
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("corrupted link lane not caught: %v", err)
	}
}

// TestAuditCatchesLedgerDrift proves the per-vault issue ledger is a
// live cross-check, not dead state.
func TestAuditCatchesLedgerDrift(t *testing.T) {
	s, _ := newSystem(t, DefaultConfig())
	s.Atomic(hmcatomic.TwoAdd8, 0, hmcatomic.Value{}, 0)
	s.vaultInstrs[0]++
	err := s.Audit(100)
	if err == nil || !strings.Contains(err.Error(), "ledger") {
		t.Fatalf("drifted issue ledger not caught: %v", err)
	}
}
