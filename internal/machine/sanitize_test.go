package machine

import (
	"reflect"
	"strings"
	"testing"

	"graphpim/internal/check"
	"graphpim/internal/cpu"
	"graphpim/internal/hmc"
	"graphpim/internal/sim"
)

// TestChecksCleanAndIdentityOnRandomTraces is the sanitizer's main
// acceptance gate: across randomized traces and every machine
// configuration, (1) a fully audited run finishes without a single
// auditor firing, and (2) its Result — cycle count, retired count, and
// the complete counter snapshot — is byte-identical to the unaudited
// run. Together these prove the auditors both hold on real traffic and
// observe without perturbing.
func TestChecksCleanAndIdentityOnRandomTraces(t *testing.T) {
	configs := []func() Config{
		Baseline,
		func() Config { return GraphPIM(false) },
		func() Config { return UPEI(false) },
		func() Config { return GraphPIM(true) },
	}
	r := sim.NewRand(1234)
	trials := 40
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		sp, tr := randomTrace(r)
		cfg := configs[trial%len(configs)]()
		var maxCycles uint64
		if trial%4 == 3 {
			maxCycles = 100 + r.Uint64()%3000
		}
		plain := NewSource(cfg, sp, tr).Run(maxCycles)

		audited := cfg
		audited.Check = check.Periodic
		audited.CheckInterval = 256
		got := NewSource(audited, sp, tr).Run(maxCycles)
		if !reflect.DeepEqual(plain, got) {
			t.Fatalf("trial %d (%s, max=%d): audited run diverged from plain run\nplain:   %+v\naudited: %+v",
				trial, cfg.Name, maxCycles, plain, got)
		}
	}
}

func TestCheckFinalLevel(t *testing.T) {
	sp, tr := synthWorkload(4, 100, 1<<14, 5)
	cfg := GraphPIM(false)
	cfg.Check = check.Final
	res := NewSource(cfg, sp, tr).Run(0)
	if res.Instructions != tr.TotalInstructions() {
		t.Fatalf("retired %d of %d", res.Instructions, tr.TotalInstructions())
	}
}

// TestLatencyMonotoneUnderLatencyIncrease is the metamorphic property
// the paper's latency model must respect: making any single cache level
// slower can never make the whole run faster. (Deterministic seeds make
// this safe to assert exactly.)
func TestLatencyMonotoneUnderLatencyIncrease(t *testing.T) {
	bump := []func(*Config){
		func(c *Config) { c.Cache.L1Lat += 2 },
		func(c *Config) { c.Cache.L2Lat += 8 },
		func(c *Config) { c.Cache.L3Lat += 20 },
		func(c *Config) { c.Cache.L1Lat += 1; c.Cache.L2Lat += 4; c.Cache.L3Lat += 12 },
	}
	r := sim.NewRand(99)
	for trial := 0; trial < 8; trial++ {
		sp, tr := randomTrace(r)
		for which, apply := range bump {
			base := Baseline()
			baseRes := NewSource(base, sp, tr).Run(0)
			slow := Baseline()
			apply(&slow)
			slowRes := NewSource(slow, sp, tr).Run(0)
			if slowRes.Cycles < baseRes.Cycles {
				t.Fatalf("trial %d bump %d: slower caches finished earlier (%d < %d cycles)",
					trial, which, slowRes.Cycles, baseRes.Cycles)
			}
		}
	}
}

// expectFailure runs fn and requires it to panic with a *check.Failure
// from the given subsystem.
func expectFailure(t *testing.T, subsystem string, fn func()) *check.Failure {
	t.Helper()
	var got *check.Failure
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("no %s audit failure raised", subsystem)
			}
			f, ok := r.(*check.Failure)
			if !ok {
				panic(r)
			}
			got = f
		}()
		fn()
	}()
	if got.Subsystem != subsystem {
		t.Fatalf("failure from subsystem %q, want %q: %v", got.Subsystem, subsystem, got)
	}
	return got
}

// checkedMachine builds a machine with aggressive periodic audits over
// a workload big enough that corruption injected mid-run is caught
// mid-run.
func checkedMachine(seed uint64) *Machine {
	sp, tr := synthWorkload(4, 400, 1<<14, seed)
	cfg := Baseline()
	cfg.Check = check.Periodic
	cfg.CheckInterval = 64
	return NewSource(cfg, sp, tr)
}

// corruptAtTick arranges for corrupt() to run once, at the given tick
// count, restoring the tick seam afterwards via t.Cleanup.
func corruptAtTick(t *testing.T, tick int, corrupt func()) {
	t.Helper()
	orig := tickCore
	t.Cleanup(func() { tickCore = orig })
	ticks := 0
	done := false
	tickCore = func(c *cpu.Core, now, elapsed uint64) uint64 {
		ticks++
		if !done && ticks >= tick {
			done = true
			corrupt()
		}
		return c.Tick(now, elapsed)
	}
}

func TestFaultInjectionCacheDirectory(t *testing.T) {
	m := checkedMachine(31)
	corrupted := false
	corruptAtTick(t, 400, func() { corrupted = m.cache.CorruptDirectoryForTest() })
	f := expectFailure(t, "cache", func() { m.Run(0) })
	if !corrupted {
		t.Fatal("corruption never applied")
	}
	if f.Cycle == 0 || f.Core != check.NoCore {
		t.Fatalf("failure context: %+v", f)
	}
}

func TestFaultInjectionMSHRLeak(t *testing.T) {
	m := checkedMachine(32)
	corruptAtTick(t, 400, func() { m.cores[2].CorruptMSHRForTest() })
	f := expectFailure(t, "cpu", func() { m.Run(0) })
	if f.Core != 2 {
		t.Fatalf("MSHR leak on core 2 attributed to core %d: %v", f.Core, f)
	}
	if f.Cycle == 0 {
		t.Fatalf("failure carries no cycle: %v", f)
	}
}

func TestFaultInjectionLinkLaneOverReservation(t *testing.T) {
	m := checkedMachine(33)
	corruptAtTick(t, 400, func() { m.mem.(*hmc.Pool).CorruptLinkLaneForTest() })
	f := expectFailure(t, "hmc", func() { m.Run(0) })
	if f.Cycle == 0 {
		t.Fatalf("failure carries no cycle: %v", f)
	}
}

// TestFaultInjectionHMCRowHits skews the cube's row-buffer outcome
// counter: the bank model's partition audit must attribute the drift
// to the "hmc" subsystem.
func TestFaultInjectionHMCRowHits(t *testing.T) {
	m := checkedMachine(37)
	corruptAtTick(t, 400, func() { m.stats.Counter("hmc.dram.row_hits").Add(1) })
	f := expectFailure(t, "hmc", func() { m.Run(0) })
	if f.Cycle == 0 || !strings.Contains(f.Error(), "row_hits") {
		t.Fatalf("failure context: %v", f)
	}
}

func TestFaultInjectionStatsSkew(t *testing.T) {
	m := checkedMachine(34)
	corruptAtTick(t, 400, func() { m.stats.Counter("cache.l1.miss").Add(1) })
	expectFailure(t, "stats", func() { m.Run(0) })
}

// TestFaultInjectionLostWakeup drops one live core from the wake table
// (its tick claims "no future wake time"): the machine-loop auditor
// must flag the stranded core at the next checkpoint instead of letting
// it idle silently until the final deadlock panic.
func TestFaultInjectionLostWakeup(t *testing.T) {
	m := checkedMachine(35)
	orig := tickCore
	t.Cleanup(func() { tickCore = orig })
	ticks := 0
	tickCore = func(c *cpu.Core, now, elapsed uint64) uint64 {
		next := c.Tick(now, elapsed)
		ticks++
		if ticks > 200 && !c.Done() && !c.WaitingBarrier() && ticks%4 == 1 {
			return ^uint64(0) // strand this core
		}
		return next
	}
	expectFailure(t, "machine", func() { m.Run(0) })
}
