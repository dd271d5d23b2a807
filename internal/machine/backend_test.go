package machine

import (
	"reflect"
	"testing"

	"graphpim/internal/check"
	"graphpim/internal/hmc"
	"graphpim/internal/mem"
	"graphpim/internal/mem/backends"
	"graphpim/internal/mem/channel"
	"graphpim/internal/memmap"
	"graphpim/internal/sim"
	"graphpim/internal/trace"
)

// TestExplicitHMCBackendIdentity is the machine-level half of the
// backend-extraction gate: a machine built with Mem unset (the default
// HMC wiring) and one built with the equivalent explicit
// hmc.PoolConfig must produce byte-identical Results — cycles,
// retired instructions, and the full counter snapshot — over randomized
// traces, every configuration, and chained cubes.
func TestExplicitHMCBackendIdentity(t *testing.T) {
	configs := []func() Config{Baseline, func() Config { return GraphPIM(true) }, func() Config { return UPEI(false) }}
	for seed := uint64(0); seed < 6; seed++ {
		r := sim.NewRand(900 + seed)
		sp, tr := randomTrace(r)
		for ci, mk := range configs {
			for _, cubes := range []int{1, 4} {
				implicit := mk()
				implicit.HMCCubes = cubes
				explicit := mk()
				explicit.HMCCubes = cubes
				hc := hmc.DefaultPoolConfig(cubes)
				hc.Cube = explicit.HMC
				explicit.Mem = hc

				a := RunTrace(implicit, sp, tr)
				b := RunTrace(explicit, sp, tr)
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("seed %d config %d cubes %d: implicit and explicit HMC backends diverge:\n%+v\n%+v",
						seed, ci, cubes, a, b)
				}
			}
		}
	}
}

// channelRow returns kind's default row of the channel backend.
func channelRow(kind string) channel.Config {
	c, _ := backends.DefaultConfig(kind)
	return c.(channel.Config)
}

// ddrConfig returns cfg running on the DDR backend.
func ddrConfig(cfg Config) Config {
	cfg.Mem = channelRow("ddr")
	return cfg
}

// TestDDRGracefulDegradation checks the capability negotiation end to
// end: a GraphPIM configuration on the PIM-less DDR backend must (a)
// run to completion under full periodic audits, (b) offload nothing —
// every atomic executes host-side — and (c) behave identically to the
// Baseline configuration on the same backend, since with no offload
// capability the entire PMR policy degrades to the conventional
// datapath.
func TestDDRGracefulDegradation(t *testing.T) {
	sp, tr := synthWorkload(4, 300, 1<<14, 11)
	gp := ddrConfig(GraphPIM(false))
	gp.Check = check.Periodic
	gp.CheckInterval = 256
	res := RunTrace(gp, sp, tr)

	if res.Cycles == 0 || res.Instructions != tr.TotalInstructions() {
		t.Fatalf("DDR run incomplete: %+v", res)
	}
	if n := res.Stats["mem.pim_atomics"]; n != 0 {
		t.Fatalf("DDR run offloaded %d atomics", n)
	}
	if res.Stats["mem.host_atomics"] == 0 {
		t.Fatal("no host atomics on an atomic-heavy workload")
	}
	if res.Stats["ddr.reads"] == 0 || res.Stats["ddr.bus.rd_bytes"] == 0 {
		t.Fatalf("DDR counters not populated: %v", res.Stats)
	}
	if res.Stats["hmc.reads"] != 0 {
		t.Fatal("hmc counters populated on a DDR run")
	}

	base := RunTrace(ddrConfig(Baseline()), sp, tr)
	if res.Cycles != base.Cycles {
		t.Fatalf("GraphPIM-on-DDR ran %d cycles but Baseline-on-DDR %d (should be identical)",
			res.Cycles, base.Cycles)
	}
}

// TestDDRMemStatAliases checks the backend-neutral counter resolution
// on a DDR result: canonical reads resolve to ddr.reads, FLIT aliases
// resolve to zero, byte aliases to the bus counters.
func TestDDRMemStatAliases(t *testing.T) {
	sp, tr := synthWorkload(2, 100, 1<<12, 3)
	res := RunTrace(ddrConfig(Baseline()), sp, tr)
	if got, want := res.MemStat("mem.reads"), res.Stats["ddr.reads"]; got != want || got == 0 {
		t.Fatalf("MemStat(mem.reads) = %d, ddr.reads = %d", got, want)
	}
	if res.TotalFlits() != 0 {
		t.Fatalf("TotalFlits = %d on a DDR run", res.TotalFlits())
	}
	if got, want := res.MemStat("mem.rsp.bytes"), res.Stats["ddr.bus.rd_bytes"]; got != want || got == 0 {
		t.Fatalf("MemStat(mem.rsp.bytes) = %d, ddr.bus.rd_bytes = %d", got, want)
	}
}

// TestFPAtomicWithoutFPFUFallsBackToHost pins the per-command half of
// the negotiation: an extended-atomics GraphPIM machine whose cubes
// have no FP functional units must route FP accumulates to the host
// path (this used to panic in the cube model) while integer atomics
// keep offloading.
func TestFPAtomicWithoutFPFUFallsBackToHost(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		r := sim.NewRand(7700 + seed)
		sp, tr := randomTrace(r)
		cfg := GraphPIM(true)
		cfg.HMC.FPFUsPerVault = 0
		cfg.Check = check.Periodic
		res := RunTrace(cfg, sp, tr)
		if n := res.Stats["hmc.atomic.EXT_FPADD64"] + res.Stats["hmc.atomic.EXT_FPSUB64"]; n != 0 {
			t.Fatalf("seed %d: %d FP atomics offloaded to FP-less cubes", seed, n)
		}
		if res.Stats["mem.pim_atomics"] == 0 {
			t.Fatalf("seed %d: integer atomics stopped offloading", seed)
		}
	}
}

// TestCrossBackendDegradationMatrix runs every registered backend kind
// under every architecture configuration with the sanitizer on: no
// panic, audits clean, every instruction retires, and the canonical
// mem.* counters resolve to exactly the selected backend's namespace —
// no other backend's counters may be touched.
func TestCrossBackendDegradationMatrix(t *testing.T) {
	sp, tr := synthWorkload(4, 200, 1<<14, 21)
	configs := []struct {
		name string
		mk   func() Config
	}{
		{"baseline", Baseline},
		{"upei", func() Config { return UPEI(false) }},
		{"graphpim", func() Config { return GraphPIM(false) }},
	}
	kinds := backends.Kinds()
	if len(kinds) < 4 {
		t.Fatalf("registry holds %v, want all four kinds", kinds)
	}
	for _, kind := range kinds {
		for _, c := range configs {
			cfg := c.mk()
			bc, ok := backends.DefaultConfig(kind)
			if !ok {
				t.Fatalf("kind %q unregistered", kind)
			}
			cfg.Mem = bc
			cfg.HMCCubes = 0 // the explicit backend config governs
			cfg.Check = check.Periodic
			cfg.CheckInterval = 256
			res := RunTrace(cfg, sp, tr)
			label := kind + "/" + c.name

			if res.Instructions != tr.TotalInstructions() {
				t.Fatalf("%s: retired %d of %d", label, res.Instructions, tr.TotalInstructions())
			}
			reads := res.MemStat(mem.StatReads)
			if reads == 0 || reads != res.Stats[kind+".reads"] {
				t.Fatalf("%s: canonical reads %d vs %s.reads %d", label, reads, kind, res.Stats[kind+".reads"])
			}
			if w := res.MemStat(mem.StatWrites); w != res.Stats[kind+".writes"] {
				t.Fatalf("%s: canonical writes %d vs %s.writes %d", label, w, kind, res.Stats[kind+".writes"])
			}
			for _, other := range kinds {
				if other != kind && res.Stats[other+".reads"] != 0 {
					t.Fatalf("%s: foreign namespace %s populated", label, other)
				}
			}
			// Offload only where the substrate has PIM units.
			pim := res.Stats["mem.pim_atomics"]
			if kind == "ddr" && pim != 0 {
				t.Fatalf("%s: PIM-less backend offloaded %d atomics", label, pim)
			}
			if kind != "ddr" && c.name != "baseline" && pim == 0 {
				t.Fatalf("%s: PIM-capable backend offloaded nothing", label)
			}
			// Every atomic is accounted exactly once.
			if pim+res.Stats["mem.host_atomics"] == 0 {
				t.Fatalf("%s: no atomics executed on an atomic-heavy trace", label)
			}
		}
	}
}

// fpTrace builds a short trace whose PMR atomics are an even mix of
// integer adds and FP accumulates — the probe for per-command
// capability negotiation.
func fpTrace() (*memmap.AddressSpace, *trace.Trace) {
	sp := memmap.NewAddressSpace()
	prop := sp.PMRMalloc(1 << 14)
	b := trace.NewBuilder(sp, 2)
	r := sim.NewRand(5)
	for th := 0; th < 2; th++ {
		e := b.Thread(th)
		for i := 0; i < 200; i++ {
			kind := trace.AtomicAdd
			if i%2 == 0 {
				kind = trace.AtomicFPAdd
			}
			e.Atomic(kind, prop+memmap.Addr(r.Intn(2048)*8), 8, false, false, false)
			e.DependentCompute(2)
		}
	}
	b.Barrier()
	return sp, b.Build()
}

// TestLPDDRFallbackCounterOnFPLessMAC pins satellite: a capability-
// negotiation fallback must be visible in stats, not silent. An
// FP-less LPDDR MAC under extended-atomics GraphPIM routes every FP
// accumulate to the host path and counts it per op.
func TestLPDDRFallbackCounterOnFPLessMAC(t *testing.T) {
	sp, tr := fpTrace()
	lc := channelRow("lpddr")
	lc.Cost[channel.FP] = 0
	cfg := GraphPIM(true)
	cfg.Mem = lc
	cfg.Check = check.Periodic
	res := RunTrace(cfg, sp, tr)

	fb := res.Stats["pou.fallbacks.EXT_FPADD64"]
	if fb == 0 {
		t.Fatal("FP fallbacks not counted")
	}
	if fb != res.Stats["mem.host_atomics"] {
		t.Fatalf("fallbacks %d != host atomics %d (only vetoed ops ran host-side)",
			fb, res.Stats["mem.host_atomics"])
	}
	if res.Stats["mem.pim_atomics"] == 0 {
		t.Fatal("integer atomics stopped offloading")
	}

	// The FP-capable default MAC has no fallbacks on the same trace.
	full := GraphPIM(true)
	full.Mem = channelRow("lpddr")
	full.Check = check.Periodic
	fres := RunTrace(full, sp, tr)
	if n := fres.Stats["pou.fallbacks.EXT_FPADD64"]; n != 0 {
		t.Fatalf("FP-capable MAC counted %d fallbacks", n)
	}
	if fres.Stats["mem.host_atomics"] != 0 {
		t.Fatalf("FP-capable MAC ran %d atomics host-side", fres.Stats["mem.host_atomics"])
	}
}

// TestVaultBundleDispatch pins the general-purpose tier end to end:
// without the FP extension an FP accumulate has no PIM command, yet the
// vault backend's scalar cores still take it — as a bundle — so nothing
// falls back to the host, and the run stays audit-clean.
func TestVaultBundleDispatch(t *testing.T) {
	sp, tr := fpTrace()
	cfg := GraphPIM(false) // no FP extension: FP atomics are unmappable
	bc, _ := backends.DefaultConfig("vault")
	cfg.Mem = bc
	cfg.Check = check.Periodic
	res := RunTrace(cfg, sp, tr)

	if res.Stats["mem.host_atomics"] != 0 {
		t.Fatalf("%d atomics fell back to host despite bundle capability", res.Stats["mem.host_atomics"])
	}
	bundles := res.Stats["vault.bundles"]
	if bundles == 0 {
		t.Fatal("no bundles dispatched for unmappable atomics")
	}
	if res.Stats["mem.pim_atomics"] != res.Stats["vault.atomics"] {
		t.Fatalf("pim atomics %d != vault atomics %d", res.Stats["mem.pim_atomics"], res.Stats["vault.atomics"])
	}
	if bundles >= res.Stats["vault.atomics"] {
		t.Fatalf("bundles %d not a strict subset of atomics %d (integer adds use the command path)",
			bundles, res.Stats["vault.atomics"])
	}
}

// TestVaultGeneralizesPMRApplicability pins the inverse negotiation: a
// workload the framework would not place in the PMR (PMRActive=false,
// Table III inapplicability) still offloads on a bundle-capable
// substrate, while fixed-function substrates keep it host-side.
func TestVaultGeneralizesPMRApplicability(t *testing.T) {
	sp, tr := fpTrace()
	mk := func(kind string) Config {
		cfg := GraphPIM(false)
		cfg.POU.PMRActive = false
		bc, ok := backends.DefaultConfig(kind)
		if !ok {
			t.Fatalf("kind %q unregistered", kind)
		}
		cfg.Mem = bc
		cfg.HMCCubes = 0
		cfg.Check = check.Periodic
		return cfg
	}
	vres := RunTrace(mk("vault"), sp, tr)
	if vres.Stats["mem.pim_atomics"] == 0 {
		t.Fatal("bundle-capable substrate did not re-activate the PMR")
	}
	hres := RunTrace(mk("hmc"), sp, tr)
	if hres.Stats["mem.pim_atomics"] != 0 {
		t.Fatalf("fixed-function substrate offloaded %d atomics with an inactive PMR",
			hres.Stats["mem.pim_atomics"])
	}
}

// TestFaultInjectionDDRBusLane proves the sanitizer reaches the DDR
// backend through the interface and attributes failures to the "ddr"
// subsystem.
func TestFaultInjectionDDRBusLane(t *testing.T) {
	sp, tr := synthWorkload(4, 400, 1<<14, 36)
	cfg := ddrConfig(Baseline())
	cfg.Check = check.Periodic
	cfg.CheckInterval = 64
	m := NewSource(cfg, sp, tr)
	corruptAtTick(t, 400, func() { m.mem.(*channel.System).CorruptLaneForTest() })
	f := expectFailure(t, "ddr", func() { m.Run(0) })
	if f.Cycle == 0 {
		t.Fatalf("failure carries no cycle: %v", f)
	}
}
