package ddr

import (
	"math/rand"
	"strings"
	"testing"

	"graphpim/internal/hmcatomic"
	"graphpim/internal/mem/dram"
	"graphpim/internal/memmap"
	"graphpim/internal/sim"
)

func newSystem(t *testing.T, cfg Config) (*System, *sim.Stats) {
	t.Helper()
	st := sim.NewStats()
	return cfg.New(st).(*System), st
}

// TestReadLatencyIdle pins the unloaded read path: bus out, closed-row
// activate + column access, burst back.
func TestReadLatencyIdle(t *testing.T) {
	cfg := DefaultConfig()
	s, _ := newSystem(t, cfg)
	lat := s.ReadLine(0, 0)
	tRCD, tCL := sim.NsToCycles(cfg.TRCDNs), sim.NsToCycles(cfg.TCLNs)
	burst := uint64(7) // ceil(64 bytes / 9.6 bytes-per-cycle)
	want := 2*cfg.BusLatency + tRCD + tCL + burst
	if lat != want {
		t.Fatalf("idle ReadLine latency = %d, want %d", lat, want)
	}
}

// TestRowBufferPolicy checks the open-page outcomes: same row hits,
// different row in the same bank conflicts, closed-page always
// activates.
func TestRowBufferPolicy(t *testing.T) {
	cfg := DefaultConfig()
	s, st := newSystem(t, cfg)
	// Channel 0, bank 0 owns every 128th line (4 channels x 32 banks);
	// its row 1 spans bank-local lines 0..127.
	interleave := memmap.Addr(64 * cfg.Channels * cfg.RanksPerChannel * cfg.BanksPerRank)
	s.ReadLine(0, 0)
	s.ReadLine(interleave, 1000) // bank-local line 1, same row
	if hits := st.Get("ddr.dram.row_hits"); hits != 1 {
		t.Fatalf("row hits = %d, want 1", hits)
	}
	s.ReadLine(interleave*memmap.Addr(cfg.RowBytes/dram.LineBytes), 2000) // bank-local line 128: row 2
	if c := st.Get("ddr.dram.row_conflicts"); c != 1 {
		t.Fatalf("row conflicts = %d, want 1", c)
	}

	closed := DefaultConfig()
	closed.OpenPage = false
	s2, st2 := newSystem(t, closed)
	s2.ReadLine(0, 0)
	s2.ReadLine(interleave, 1000)
	if a := st2.Get("ddr.dram.activates"); a != 2 {
		t.Fatalf("closed-page activates = %d, want 2", a)
	}
	if h := st2.Get("ddr.dram.row_hits"); h != 0 {
		t.Fatalf("closed-page row hits = %d, want 0", h)
	}
}

// TestNoOffload pins the capability surface: nothing offloads, and an
// offloaded atomic is a loud modeling error.
func TestNoOffload(t *testing.T) {
	s, _ := newSystem(t, DefaultConfig())
	for _, op := range hmcatomic.AllOps() {
		if s.CanOffload(op) {
			t.Fatalf("DDR claims to offload %v", op)
		}
	}
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("Atomic on DDR did not panic")
		}
	}()
	s.Atomic(hmcatomic.Add16, 0, hmcatomic.Value{}, 0)
}

// TestCountersAndAuditRandomized drives a randomized request mix and
// checks byte conservation, the row-buffer outcome partition, and that
// the full audit passes at a quiescent point.
func TestCountersAndAuditRandomized(t *testing.T) {
	for _, open := range []bool{true, false} {
		cfg := DefaultConfig()
		cfg.OpenPage = open
		s, st := newSystem(t, cfg)
		rng := rand.New(rand.NewSource(42))
		var now uint64
		for i := 0; i < 4000; i++ {
			// 8MB footprint: ~8 rows per bank, so open-page runs see
			// both row hits and conflicts.
			addr := memmap.Addr(rng.Uint64() >> 44 << 3)
			now += uint64(rng.Intn(6))
			switch rng.Intn(4) {
			case 0:
				s.ReadLine(memmap.LineAddr(addr), now)
			case 1:
				s.WriteLine(memmap.LineAddr(addr), now)
			case 2:
				s.UCRead(addr, now)
			default:
				s.UCWrite(addr, now)
			}
		}
		if err := s.Audit(now); err != nil {
			t.Fatalf("open=%v: audit after clean run: %v", open, err)
		}
		total := st.Get("ddr.reads") + st.Get("ddr.writes") + st.Get("ddr.uc.reads") + st.Get("ddr.uc.writes")
		if total != 4000 {
			t.Fatalf("open=%v: request counters sum to %d, want 4000", open, total)
		}
		if open {
			if st.Get("ddr.dram.row_hits") == 0 {
				t.Errorf("open-page run produced no row hits")
			}
		} else if st.Get("ddr.dram.row_hits") != 0 {
			t.Errorf("closed-page run produced row hits")
		}
	}
}

// TestAuditCatchesBusOverReservation proves the fault injector trips
// the lane audit.
func TestAuditCatchesBusOverReservation(t *testing.T) {
	s, _ := newSystem(t, DefaultConfig())
	s.ReadLine(0, 0)
	s.CorruptBusLaneForTest()
	err := s.Audit(100)
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("corrupted bus lane not caught: %v", err)
	}
}

// TestValidate exercises each rejected field.
func TestValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Channels = 0 },
		func(c *Config) { c.Channels = 3 },
		func(c *Config) { c.RanksPerChannel = 0 },
		func(c *Config) { c.BanksPerRank = 6 },
		func(c *Config) { c.TRCDNs = 0 },
		func(c *Config) { c.TRASNs = -1 },
		func(c *Config) { c.ChannelGBs = 0 },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d: invalid config accepted", i)
		}
	}
}

// TestBusContention checks the bandwidth model end to end: a burst of
// simultaneous reads to distinct banks on one channel must serialize on
// the data bus, so the last completion is later than the first by at
// least the aggregate serialization time.
func TestBusContention(t *testing.T) {
	cfg := DefaultConfig()
	s, _ := newSystem(t, cfg)
	const n = 64
	var min, max uint64
	for i := 0; i < n; i++ {
		// Distinct banks, same channel 0: stride by Channels lines.
		addr := memmap.Addr(i * 64 * cfg.Channels)
		lat := s.ReadLine(addr, 0)
		if i == 0 || lat < min {
			min = lat
		}
		if lat > max {
			max = lat
		}
	}
	// 64 bursts of 64 bytes at 9.6 B/cycle ≈ 426 cycles of bus time.
	if max < min+300 {
		t.Fatalf("no visible bus serialization: min %d, max %d", min, max)
	}
}
