package backends

import (
	"slices"
	"strings"
	"testing"
	"time"

	"graphpim/internal/hmc"
	"graphpim/internal/hmcatomic"
	"graphpim/internal/mem"
	"graphpim/internal/mem/channel"
	"graphpim/internal/mem/dram"
	"graphpim/internal/memmap"
	"graphpim/internal/sim"
)

// TestKindsRegistrationOrder pins the list and the order CLI listings
// and error messages present it in.
func TestKindsRegistrationOrder(t *testing.T) {
	if got, want := Kinds(), []string{"hmc", "ddr", "lpddr", "vault"}; !slices.Equal(got, want) {
		t.Fatalf("Kinds() = %v, want %v", got, want)
	}
}

// TestDefaultConfigs: every kind resolves through DefaultConfig to a
// validating config of the same kind that builds a backend whose audit
// passes before any traffic.
func TestDefaultConfigs(t *testing.T) {
	for _, kind := range Kinds() {
		cfg, ok := DefaultConfig(kind)
		if !ok {
			t.Fatalf("DefaultConfig(%q) missing", kind)
		}
		if cfg.Kind() != kind {
			t.Fatalf("DefaultConfig(%q).Kind() = %q", kind, cfg.Kind())
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("default %q config invalid: %v", kind, err)
		}
		if err := cfg.New(sim.NewStats()).Audit(0); err != nil {
			t.Fatalf("fresh %q backend fails its audit: %v", kind, err)
		}
	}
	if _, ok := DefaultConfig("sram"); ok {
		t.Fatal("unknown kind resolved")
	}
}

// TestNamesRegisteredByBackends checks the alias table, the one
// declaration of the counter names consumers read, against what each
// backend really registers: every alias in a kind's namespace must be a
// counter of a freshly built backend of that kind, and mem.Names must
// find each quantity the kind models.
func TestNamesRegisteredByBackends(t *testing.T) {
	perRequest := []string{mem.StatReads, mem.StatWrites, mem.StatUCReads, mem.StatUCWrites, mem.StatAtomics}
	traffic := []string{mem.StatReqFlits, mem.StatRspFlits, mem.StatReqBytes, mem.StatRspBytes}
	for _, kind := range Kinds() {
		cfg, _ := DefaultConfig(kind)
		stats := sim.NewStats()
		cfg.New(stats)
		registered := stats.Snapshot()
		// check reports how many of the canonicals alias into kind.
		check := func(canonicals []string) (n int) {
			for _, c := range canonicals {
				for _, name := range mem.Aliases(c) {
					if !strings.HasPrefix(name, kind+".") {
						continue
					}
					n++
					if _, ok := registered[name]; !ok {
						t.Errorf("%s: %s alias %q is not a counter the backend registers", kind, c, name)
					}
				}
			}
			return n
		}
		check(perRequest)
		if n := check(traffic); n != 2 {
			t.Errorf("%s: %d request/response traffic aliases, want 2", kind, n)
		}
		n := mem.Names(kind)
		if n.Reads == "" || n.Writes == "" || n.UCReads == "" || n.UCWrites == "" {
			t.Errorf("%s: incomplete counter names %+v", kind, n)
		}
		if got, want := n.Atomics == "", kind == "ddr"; got != want {
			t.Errorf("%s: atomics counter %q; only ddr, which has no PIM units, has none", kind, n.Atomics)
		}
		if got, want := mem.FlitTraffic(kind), kind == "hmc"; got != want {
			t.Errorf("FlitTraffic(%q) = %v, want %v", kind, got, want)
		}
	}
	if mem.FlitTraffic("sram") || mem.Names("sram") != (mem.CounterNames{}) {
		t.Error("unknown kind resolves counters")
	}
}

// TestTinyLaneRateRejected pins the epoch-budget check on every kind: a
// lane whose 32-cycle budget cannot hold the kind's largest transfer (5
// FLITs for HMC, 64 bytes otherwise) would make dram.Lane.Reserve spin
// forever, so Validate rejects it; the smallest rate it accepts serves
// reads and writes.
func TestTinyLaneRateRejected(t *testing.T) {
	// minGBs is the byte rate, in GB/s, whose epoch budget is exactly
	// largest bytes.
	minGBs := func(largest float64) float64 { return largest / dram.EpochCycles * sim.CoreClockGHz }
	hmcLinks := hmc.DefaultConfig().LinkGBs * float64(hmc.DefaultConfig().NumLinks)
	type tcase struct {
		kind string
		min  float64
		set  func(rate float64) mem.Config
	}
	cases := []tcase{
		{"hmc", minGBs(5*hmcatomic.FlitBytes) / hmcLinks, func(r float64) mem.Config {
			c := hmc.DefaultPoolConfig(1)
			c.Cube.LinkBWScale = r
			return c
		}},
	}
	for _, row := range channel.Rows() {
		cases = append(cases, tcase{row.Kind(), minGBs(64), func(r float64) mem.Config {
			c := row
			c.LaneGBs = r
			return c
		}})
	}
	for _, tc := range cases {
		t.Run(tc.kind, func(t *testing.T) {
			for _, r := range []float64{tc.min / 100, tc.min * (1 - 1e-9)} {
				if err := tc.set(r).Validate(); err == nil {
					t.Fatalf("rate %g below the minimum %g accepted", r, tc.min)
				}
			}
			cfg := tc.set(tc.min * (1 + 1e-9))
			if err := cfg.Validate(); err != nil {
				t.Fatalf("smallest rate rejected: %v", err)
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				b := cfg.New(sim.NewStats())
				for i := 0; i < 4; i++ {
					b.ReadLine(memmap.Addr(i*64), 0)
					b.WriteLine(memmap.Addr(i*64), 0)
				}
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("reads and writes at the smallest accepted rate did not complete")
			}
		})
	}
}

// fuzzConfigs are the backends FuzzBackendAudit drives: every kind's
// default, plus a 2-cube HMC chain.
func fuzzConfigs() []mem.Config {
	var out []mem.Config
	for _, kind := range Kinds() {
		cfg, _ := DefaultConfig(kind)
		out = append(out, cfg)
	}
	return append(out, hmc.DefaultPoolConfig(2))
}

// FuzzBackendAudit drives one backend with a decoded request stream at
// non-decreasing times and checks the contract every machine relies
// on: each latency and acknowledgement lands at or after its issue
// time, an atomic's response comes no earlier than its acceptance, and
// the backend's own audit (lanes, banks, FUs, vault issue ledgers,
// counter conservation) passes at the end.
//
// The script decodes in 3-byte steps: the first byte picks the request
// (low 3 bits) and the time advance (high 5 bits, 31 = a jump past the
// lane ring), the second the address, the third the atomic op.
// Atomic is sent only for ops CanOffload accepts, and AtomicBundle only
// to a bundle backend that accepts bundles.
func FuzzBackendAudit(f *testing.F) {
	configs := fuzzConfigs()
	for i := range configs {
		f.Add(uint8(i), []byte{0, 1, 0, 9, 2, 3, 2, 3, 5, 3, 4, 7, 4, 5, 11, 5, 6, 0, 255, 7, 13})
	}
	f.Fuzz(func(t *testing.T, sel uint8, script []byte) {
		cfg := configs[int(sel)%len(configs)]
		b := cfg.New(sim.NewStats())
		bb, _ := b.(mem.BundleBackend)
		var now uint64
		for i := 0; i+2 < len(script) && i < 3*4096; i += 3 {
			ctl, a, o := script[i], script[i+1], script[i+2]
			if adv := uint64(ctl >> 3); adv == 31 {
				now += dram.EpochSlots * dram.EpochCycles
			} else {
				now += adv
			}
			addr := memmap.Addr(uint64(a)<<9 | uint64(o&7)<<3)
			switch ctl & 7 {
			case 0, 1:
				if lat := b.ReadLine(memmap.LineAddr(addr), now); now+lat < now {
					t.Fatalf("%s ReadLine at %d: latency %d wraps", cfg.Kind(), now, lat)
				}
			case 2:
				b.WriteLine(memmap.LineAddr(addr), now)
			case 3:
				if lat := b.UCRead(addr, now); now+lat < now {
					t.Fatalf("%s UCRead at %d: latency %d wraps", cfg.Kind(), now, lat)
				}
			case 4:
				if ack := b.UCWrite(addr, now); ack < now {
					t.Fatalf("%s UCWrite at %d acknowledged at %d", cfg.Kind(), now, ack)
				}
			case 5, 6:
				op := hmcatomic.Op(int(o>>3) % hmcatomic.NumOps)
				if b.CanOffload(op) {
					checkAtomic(t, cfg.Kind(), "Atomic", now, b.Atomic(op, addr, hmcatomic.Value{}, now))
				}
			case 7:
				if bb != nil && bb.CanOffloadBundle() {
					checkAtomic(t, cfg.Kind(), "AtomicBundle", now, bb.AtomicBundle(addr, now))
				}
			}
		}
		if err := b.Audit(now); err != nil {
			t.Fatalf("%s audit at %d: %v", cfg.Kind(), now, err)
		}
	})
}

func checkAtomic(t *testing.T, kind, call string, now uint64, tm mem.AtomicTiming) {
	t.Helper()
	if tm.Accepted < now || tm.ResponseAt < tm.Accepted {
		t.Fatalf("%s %s at %d: accepted %d, response %d", kind, call, now, tm.Accepted, tm.ResponseAt)
	}
}
