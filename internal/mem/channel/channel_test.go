package channel

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"graphpim/internal/hmcatomic"
	"graphpim/internal/mem"
	"graphpim/internal/mem/dram"
	"graphpim/internal/memmap"
	"graphpim/internal/sim"
)

// row returns kind's default configuration.
func row(t testing.TB, kind string) Config {
	t.Helper()
	for _, c := range Rows() {
		if c.Kind() == kind {
			return c
		}
	}
	t.Fatalf("no %q row", kind)
	return Config{}
}

func newSystem(t testing.TB, cfg Config) (*System, *sim.Stats) {
	t.Helper()
	st := sim.NewStats()
	return cfg.New(st).(*System), st
}

// pimKinds are the rows with PIM units.
var pimKinds = []string{"lpddr", "vault"}

// TestCounterSets pins the exact counters a fresh backend of each kind
// registers: every table, stats snapshot and sanitizer attribution
// reads these names, so the row table may neither add one (ddr.atomics,
// lpddr.core.instrs) nor drop one (vault.bundles, lpddr.mac.fp_ops).
func TestCounterSets(t *testing.T) {
	want := map[string][]string{
		"ddr": {"ddr.bus.rd_bytes", "ddr.bus.wr_bytes", "ddr.dram.activates", "ddr.dram.row_conflicts",
			"ddr.dram.row_hits", "ddr.reads", "ddr.uc.reads", "ddr.uc.writes", "ddr.writes"},
		"lpddr": {"lpddr.atomics", "lpddr.bus.rd_bytes", "lpddr.bus.wr_bytes", "lpddr.dram.activates",
			"lpddr.dram.row_conflicts", "lpddr.dram.row_hits", "lpddr.mac.busy_cycles", "lpddr.mac.fp_ops",
			"lpddr.mac.queue_cycles", "lpddr.reads", "lpddr.uc.reads", "lpddr.uc.writes", "lpddr.writes"},
		"vault": {"vault.atomics", "vault.bundles", "vault.core.busy_cycles", "vault.core.instrs",
			"vault.core.queue_cycles", "vault.dram.activates", "vault.dram.row_conflicts", "vault.dram.row_hits",
			"vault.link.req_bytes", "vault.link.rsp_bytes", "vault.reads", "vault.uc.reads", "vault.uc.writes",
			"vault.writes"},
	}
	var kinds []string
	for _, c := range Rows() {
		kinds = append(kinds, c.Kind())
		_, st := newSystem(t, c)
		var got []string
		for name := range st.Snapshot() {
			got = append(got, name)
		}
		slices.Sort(got)
		if !slices.Equal(got, want[c.Kind()]) {
			t.Errorf("%s registers\n%q\nwant\n%q", c.Kind(), got, want[c.Kind()])
		}
	}
	if !slices.Equal(kinds, []string{"ddr", "lpddr", "vault"}) {
		t.Fatalf("rows = %v, want ddr, lpddr, vault", kinds)
	}
}

// TestValidate exercises each rejected field on every row. At row sizes
// below a line, Route.Map would divide by zero on the first request.
func TestValidate(t *testing.T) {
	common := []func(*Config){
		func(c *Config) { c.Channels = 0 },
		func(c *Config) { c.Channels = 3 },
		func(c *Config) { c.BanksPerChannel = 0 },
		func(c *Config) { c.BanksPerChannel = 6 },
		func(c *Config) { c.Timing.TRCDNs = 0 },
		func(c *Config) { c.Timing.TRASNs = -1 },
		func(c *Config) { c.LaneGBs = 0 },
		func(c *Config) { c.RowBytes = 0 },
		func(c *Config) { c.RowBytes = 32 },
		func(c *Config) { c.RowBytes = 96 },
		func(c *Config) { c.PacketBytes = 0 },
		func(c *Config) { c.PacketBytes = 65 },
		func(c *Config) { c.kind = "sram" },
	}
	pim := []func(*Config){
		func(c *Config) { c.UnitsPerChannel = 3 },
		func(c *Config) { c.UnitsPerChannel = 2 * c.BanksPerChannel },
		func(c *Config) { c.CycleMult = 0 },
		func(c *Config) { c.UnitsPerChannel = 0 }, // costs without units
	}
	for _, def := range Rows() {
		t.Run(def.Kind(), func(t *testing.T) {
			if err := def.Validate(); err != nil {
				t.Fatalf("default config invalid: %v", err)
			}
			bad := common
			if def.UnitsPerChannel > 0 {
				bad = append(slices.Clone(common), pim...)
			} else {
				bad = append(slices.Clone(common), func(c *Config) { c.Cost[Int] = 1 })
			}
			for i, mutate := range bad {
				c := def
				mutate(&c)
				if err := c.Validate(); err == nil {
					t.Errorf("mutation %d: invalid config accepted: %+v", i, c)
				}
			}
		})
	}
}

// TestReadLatencyIdle pins the unloaded read path: transport out,
// closed-row activate + column access, the line back over the lane.
func TestReadLatencyIdle(t *testing.T) {
	// Line serialization: ceil(64 bytes / lane bytes-per-cycle).
	lineCycles := map[string]uint64{"ddr": 7, "lpddr": 16, "vault": 4}
	for _, cfg := range Rows() {
		t.Run(cfg.Kind(), func(t *testing.T) {
			s, _ := newSystem(t, cfg)
			lat := s.ReadLine(0, 0)
			tRCD, tCL := sim.NsToCycles(cfg.Timing.TRCDNs), sim.NsToCycles(cfg.Timing.TCLNs)
			if want := 2*cfg.Latency + tRCD + tCL + lineCycles[cfg.Kind()]; lat != want {
				t.Fatalf("idle ReadLine latency = %d, want %d", lat, want)
			}
		})
	}
}

// TestRowBufferPolicy checks the open-page outcomes: same row hits,
// different row in the same bank conflicts, closed-page always
// activates.
func TestRowBufferPolicy(t *testing.T) {
	for _, cfg := range Rows() {
		t.Run(cfg.Kind(), func(t *testing.T) {
			ns := cfg.Kind() + ".dram."
			s, st := newSystem(t, cfg)
			// Channel 0, bank 0 owns every interleave-th line; its row 1
			// spans bank-local lines 0..RowBytes/64-1.
			interleave := memmap.Addr(dram.LineBytes * cfg.Channels * cfg.BanksPerChannel)
			s.ReadLine(0, 0)
			s.ReadLine(interleave, 1000) // bank-local line 1, same row
			if hits := st.Get(ns + "row_hits"); hits != 1 {
				t.Fatalf("row hits = %d, want 1", hits)
			}
			s.ReadLine(interleave*memmap.Addr(cfg.RowBytes/dram.LineBytes), 2000) // row 2
			if c := st.Get(ns + "row_conflicts"); c != 1 {
				t.Fatalf("row conflicts = %d, want 1", c)
			}

			closed := cfg
			closed.OpenPage = false
			s2, st2 := newSystem(t, closed)
			s2.ReadLine(0, 0)
			s2.ReadLine(interleave, 1000)
			if a := st2.Get(ns + "activates"); a != 2 {
				t.Fatalf("closed-page activates = %d, want 2", a)
			}
			if h := st2.Get(ns + "row_hits"); h != 0 {
				t.Fatalf("closed-page row hits = %d, want 0", h)
			}
		})
	}
}

// TestCapability pins each row's capability surface: ddr offloads
// nothing, lpddr's MACs take the whole command set (an FP-less part
// refuses exactly the FP extension commands), and vault's cores take
// every command plus generic bundles. Offloading a refused command is
// a loud modeling error.
func TestCapability(t *testing.T) {
	cases := []struct {
		name, kind string
		mutate     func(*Config)
		offloads   func(hmcatomic.Op) bool
		bundles    bool
		refused    hmcatomic.Op // a refused command, when one exists
	}{
		{"ddr", "ddr", nil, func(hmcatomic.Op) bool { return false }, false, hmcatomic.Add16},
		{"lpddr", "lpddr", nil, func(hmcatomic.Op) bool { return true }, false, 0},
		{"lpddr-fp-less", "lpddr", func(c *Config) { c.Cost[FP] = 0 },
			func(op hmcatomic.Op) bool { return !hmcatomic.IsFloat(op) }, false, hmcatomic.ExtFPAdd64},
		{"vault", "vault", nil, func(hmcatomic.Op) bool { return true }, true, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := row(t, tc.kind)
			if tc.mutate != nil {
				tc.mutate(&cfg)
			}
			s, _ := newSystem(t, cfg)
			var _ mem.BundleBackend = s
			for _, op := range hmcatomic.AllOps() {
				if got := s.CanOffload(op); got != tc.offloads(op) {
					t.Fatalf("CanOffload(%v) = %v", op, got)
				}
			}
			if s.CanOffloadBundle() != tc.bundles {
				t.Fatalf("CanOffloadBundle() = %v, want %v", s.CanOffloadBundle(), tc.bundles)
			}
			mustPanic := func(what string, f func()) {
				t.Helper()
				defer func() {
					if recover() == nil {
						t.Fatalf("%s on a unit that cannot execute it did not panic", what)
					}
				}()
				f()
			}
			if !tc.bundles {
				mustPanic("AtomicBundle", func() { s.AtomicBundle(0, 0) })
			}
			if !tc.offloads(tc.refused) {
				mustPanic(tc.refused.String(), func() { s.Atomic(tc.refused, 0, hmcatomic.Value{}, 0) })
			}
		})
	}
}

// TestUnitCosts pins the unit cost model: each op class holds its unit
// for the row's cost times the cycle multiplier — lpddr's MAC clock
// domain (FP four times as long), vault's bundle lengths at the issue
// gap — the kind's named counters follow, lpddr grants stay on the PIM
// clock grid, and the audit passes.
func TestUnitCosts(t *testing.T) {
	type step struct {
		op     hmcatomic.Op
		bundle bool
		busy   uint64 // core cycles the op holds its unit
	}
	cases := []struct {
		kind  string
		steps []step
		named map[string]uint64 // kind counters after all steps
	}{
		{"lpddr", []step{{hmcatomic.TwoAdd8, false, 2 * 4}, {hmcatomic.CasEQ8, false, 2 * 4}, {hmcatomic.ExtFPAdd64, false, 8 * 4}},
			map[string]uint64{"lpddr.atomics": 3, "lpddr.mac.fp_ops": 1, "lpddr.mac.busy_cycles": 48}},
		{"vault", []step{
			{hmcatomic.TwoAdd8, false, 4 * 4}, {hmcatomic.CasEQ8, false, 6 * 4}, {hmcatomic.Eq16, false, 6 * 4},
			{hmcatomic.ExtFPAdd64, false, 24 * 4}, {0, true, 10 * 4}},
			map[string]uint64{"vault.atomics": 5, "vault.bundles": 1, "vault.core.instrs": 50, "vault.core.busy_cycles": 200}},
	}
	for _, tc := range cases {
		t.Run(tc.kind, func(t *testing.T) {
			cfg := row(t, tc.kind)
			s, st := newSystem(t, cfg)
			var busy uint64
			for i, step := range tc.steps {
				if step.bundle {
					s.AtomicBundle(0, 0)
				} else {
					s.Atomic(step.op, 0, hmcatomic.Value{}, 0)
				}
				busy += step.busy
				if got := s.ctr.busy.Value(); got != busy {
					t.Fatalf("step %d: unit busy = %d, want %d", i, got, busy)
				}
				for u, free := range s.unitFree {
					if cfg.AlignGrant && free%cfg.CycleMult != 0 {
						t.Fatalf("step %d: unit %d free time %d off the clock grid", i, u, free)
					}
				}
			}
			for name, want := range tc.named {
				if got := st.Get(name); got != want {
					t.Errorf("%s = %d, want %d", name, got, want)
				}
			}
			var ledger uint64
			for _, n := range s.unitWork {
				ledger += n
			}
			if ledger != busy/cfg.CycleMult {
				t.Fatalf("per-unit ledger = %d, want %d", ledger, busy/cfg.CycleMult)
			}
			if err := s.Audit(100_000); err != nil {
				t.Fatalf("audit: %v", err)
			}
		})
	}
}

// TestUnitSerialization: one unit serves a run of banks (a bank group
// on lpddr, a whole vault on vault), so atomics to its banks serialize
// on it even across banks — the unit is the throughput limiter.
func TestUnitSerialization(t *testing.T) {
	for _, kind := range pimKinds {
		t.Run(kind, func(t *testing.T) {
			cfg := row(t, kind)
			s, _ := newSystem(t, cfg)
			banksPerUnit := cfg.BanksPerChannel / cfg.UnitsPerChannel
			const n = 32
			var first, last uint64
			for i := 0; i < n; i++ {
				// Channel 0, unit 0, varying banks: stride by one channel
				// round.
				addr := memmap.Addr(i % banksPerUnit * dram.LineBytes * cfg.Channels)
				tm := s.Atomic(hmcatomic.TwoAdd8, addr, hmcatomic.Value{}, 0)
				if i == 0 {
					first = tm.ResponseAt
				}
				last = tm.ResponseAt
			}
			occ := cfg.Cost[Int] * cfg.CycleMult
			if last < first+(n-1)*occ {
				t.Fatalf("no unit serialization: first %d, last %d, want gap >= %d", first, last, (n-1)*occ)
			}
		})
	}
}

// TestLaneContention checks the bandwidth model end to end: reads
// issued together to distinct banks of one channel share its response
// lane, which carries at most an epoch budget per epoch, so the last
// completes at least ceil(n/k)-2 epochs after the first, k being the
// lines that fit one epoch.
func TestLaneContention(t *testing.T) {
	for _, cfg := range Rows() {
		t.Run(cfg.Kind(), func(t *testing.T) {
			s, _ := newSystem(t, cfg)
			const n = 64
			var lo, hi uint64
			for i := 0; i < n; i++ {
				// Channel 0: stride by one channel round.
				lat := s.ReadLine(memmap.Addr(i*dram.LineBytes*cfg.Channels), 0)
				if i == 0 || lat < lo {
					lo = lat
				}
				hi = max(hi, lat)
			}
			perEpoch := uint64(dram.BytesPerCycle(cfg.LaneGBs) * dram.EpochCycles / dram.LineBytes)
			want := ((n+perEpoch-1)/perEpoch - 2) * dram.EpochCycles
			if hi < lo+want {
				t.Fatalf("no visible lane serialization: min %d, max %d, want a gap >= %d", lo, hi, want)
			}
		})
	}
}

// TestLatencyWeakMonotonicity is the backend property test: issuing
// atomics at non-decreasing times to the same address never yields a
// response earlier than a previous one.
func TestLatencyWeakMonotonicity(t *testing.T) {
	for _, kind := range pimKinds {
		t.Run(kind, func(t *testing.T) {
			f := func(seed int64) bool {
				s, _ := newSystem(t, row(t, kind))
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
						if !s.CanOffloadBundle() {
							continue
						}
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
		})
	}
}

// TestFunctionalMatchesHostModel drives a randomized atomic stream
// through a Functional system and a host-side reference: offloading to
// a bank-group MAC or a vault core may change timing, never values or
// flags.
func TestFunctionalMatchesHostModel(t *testing.T) {
	for _, kind := range pimKinds {
		t.Run(kind, func(t *testing.T) {
			cfg := row(t, kind)
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
		})
	}
}

// TestCountersAndAuditRandomized drives a randomized mix of every
// request the row serves — line fills and writebacks, UC accesses,
// atomics and bundles where the units take them — under both page
// policies, and checks the audit's identities at a quiescent point.
func TestCountersAndAuditRandomized(t *testing.T) {
	seeds := map[string]int64{"ddr": 42, "lpddr": 7, "vault": 7}
	for _, def := range Rows() {
		t.Run(def.Kind(), func(t *testing.T) {
			for _, open := range []bool{true, false} {
				cfg := def
				cfg.OpenPage = open
				s, st := newSystem(t, cfg)
				kinds := 4
				if s.CanOffload(hmcatomic.TwoAdd8) {
					kinds++
				}
				if s.CanOffloadBundle() {
					kinds++
				}
				rng := rand.New(rand.NewSource(seeds[cfg.Kind()]))
				var now uint64
				for i := 0; i < 4000; i++ {
					// 8MB footprint: several rows per bank, so open-page
					// runs see both row hits and conflicts.
					addr := memmap.Addr(rng.Uint64() >> 44 << 3)
					now += uint64(rng.Intn(6))
					switch rng.Intn(kinds) {
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
				n := mem.Names(cfg.Kind())
				total := st.Get(n.Reads) + st.Get(n.Writes) + st.Get(n.UCReads) + st.Get(n.UCWrites)
				if n.Atomics != "" {
					total += st.Get(n.Atomics)
				}
				if total != 4000 {
					t.Fatalf("open=%v: request counters sum to %d, want 4000", open, total)
				}
				if hits := st.Get(cfg.Kind() + ".dram.row_hits"); open != (hits > 0) {
					t.Errorf("open=%v: %d row hits", open, hits)
				}
				if s.CanOffloadBundle() && s.ctr.ops[Bundle].Value() == 0 {
					t.Errorf("open=%v: randomized mix issued no bundles", open)
				}
			}
		})
	}
}

// TestAuditCatchesLaneOverReservation proves the fault injector trips
// the lane audit on a bus and on a link pair.
func TestAuditCatchesLaneOverReservation(t *testing.T) {
	for _, cfg := range Rows() {
		t.Run(cfg.Kind(), func(t *testing.T) {
			s, _ := newSystem(t, cfg)
			s.ReadLine(0, 0)
			s.CorruptLaneForTest()
			err := s.Audit(100)
			if err == nil || !strings.Contains(err.Error(), "budget") {
				t.Fatalf("corrupted lane not caught: %v", err)
			}
		})
	}
}

// TestAuditCatchesLedgerDrift proves the per-unit work ledger is a live
// cross-check, not dead state.
func TestAuditCatchesLedgerDrift(t *testing.T) {
	for _, kind := range pimKinds {
		t.Run(kind, func(t *testing.T) {
			s, _ := newSystem(t, row(t, kind))
			s.Atomic(hmcatomic.TwoAdd8, 0, hmcatomic.Value{}, 0)
			s.unitWork[0]++
			err := s.Audit(100)
			if err == nil || !strings.Contains(err.Error(), "ledger") {
				t.Fatalf("drifted work ledger not caught: %v", err)
			}
		})
	}
}

// TestAuditCatchesCounterDrift proves the byte-conservation and unit
// occupancy identities are live: a transfer, a class count or a busy
// cycle booked without its request trips the audit.
func TestAuditCatchesCounterDrift(t *testing.T) {
	drifts := []struct {
		name string
		bump func(*System) sim.Counter
		want string
	}{
		{"rd-bytes", func(s *System) sim.Counter { return s.ctr.rdBytes }, "per-request transfers"},
		{"wr-bytes", func(s *System) sim.Counter { return s.ctr.wrBytes }, "per-request transfers"},
		{"class-ops", func(s *System) sim.Counter { return s.ctr.ops[FP] }, "per-class op counts"},
		{"busy", func(s *System) sim.Counter { return s.ctr.busy }, "busy cycles"},
	}
	for _, kind := range pimKinds {
		for _, d := range drifts {
			t.Run(kind+"/"+d.name, func(t *testing.T) {
				s, _ := newSystem(t, row(t, kind))
				s.Atomic(hmcatomic.TwoAdd8, 0, hmcatomic.Value{}, 0)
				d.bump(s).Inc()
				err := s.Audit(100)
				if err == nil || !strings.Contains(err.Error(), d.want) {
					t.Fatalf("drifted counter not caught: %v", err)
				}
			})
		}
	}
}
