package hmc

import (
	"testing"

	"graphpim/internal/hmcatomic"
	"graphpim/internal/mem"
	"graphpim/internal/memmap"
	"graphpim/internal/sim"
)

// TestFunctionalMatchesHostModel drives a randomized atomic stream
// through a Functional cube and through a host-side reference (a plain
// map mutated with hmcatomic.Apply, i.e. what a CPU executing the same
// atomics would compute). The PIM path must produce identical flags at
// every step and identical memory at the end — offloading an atomic to
// the vault logic die may change its timing, never its value.
func TestFunctionalMatchesHostModel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Functional = true
	c := New(cfg, sim.NewStats())

	host := map[memmap.Addr]hmcatomic.Value{}
	r := sim.NewRand(42)
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

		tm := c.Atomic(op, addr, imm, now)
		if tm.Flag != want.Flag {
			t.Fatalf("step %d: %v at %#x returned flag %v, host model says %v",
				step, op, addr, tm.Flag, want.Flag)
		}
		if got := c.LoadValue(addr); got != host[addr] {
			t.Fatalf("step %d: %v at %#x left PIM memory %+v, host model %+v",
				step, op, addr, got, host[addr])
		}
		now += uint64(r.Intn(8))
	}
	for _, addr := range addrs {
		if got := c.LoadValue(addr); got != host[addr] {
			t.Fatalf("final: PIM memory at %#x is %+v, host model %+v", addr, got, host[addr])
		}
	}
	if err := (&Pool{cubes: []*Cube{c}}).Audit(now); err != nil {
		t.Fatalf("audit after functional stream: %v", err)
	}
}

// TestFunctionalModeDoesNotPerturbTiming: enabling the functional data
// store must not change a single latency — it is a value overlay on the
// same timing model.
func TestFunctionalModeDoesNotPerturbTiming(t *testing.T) {
	run := func(functional bool) []mem.AtomicTiming {
		cfg := DefaultConfig()
		cfg.Functional = functional
		c := New(cfg, sim.NewStats())
		r := sim.NewRand(9)
		var out []mem.AtomicTiming
		var now uint64
		for i := 0; i < 1000; i++ {
			op := hmcatomic.Op(r.Intn(hmcatomic.NumOps))
			addr := memmap.Addr(r.Intn(1<<18) * 16)
			tm := c.Atomic(op, addr, hmcatomic.Value{Lo: r.Uint64()}, now)
			tm.Flag = false // value-plane field; timing comparison only
			out = append(out, tm)
			now += uint64(r.Intn(12))
		}
		return out
	}
	plain, functional := run(false), run(true)
	for i := range plain {
		if plain[i] != functional[i] {
			t.Fatalf("atomic %d: timing differs with functional store: %+v vs %+v",
				i, plain[i], functional[i])
		}
	}
}
