package hmc

import (
	"testing"

	"graphpim/internal/hmcatomic"
	"graphpim/internal/memmap"
	"graphpim/internal/sim"
)

func TestPoolRouting(t *testing.T) {
	p := NewPool(DefaultPoolConfig(4), sim.NewStats())
	// 4KB pages interleave across cubes.
	if p.CubeFor(0) != 0 || p.CubeFor(4096) != 1 || p.CubeFor(2*4096) != 2 || p.CubeFor(4*4096) != 0 {
		t.Fatalf("page routing wrong: %d %d %d %d",
			p.CubeFor(0), p.CubeFor(4096), p.CubeFor(2*4096), p.CubeFor(4*4096))
	}
	if len(p.cubes) != 4 {
		t.Fatalf("chain length = %d", len(p.cubes))
	}
}

func TestPoolFarCubeLatency(t *testing.T) {
	p := NewPool(DefaultPoolConfig(4), sim.NewStats())
	near := p.ReadLine(0, 0)     // cube 0
	far := p.ReadLine(3*4096, 0) // cube 3: 3 hops each way
	if far < near+6*DefaultPoolConfig(4).HopLatencyCycles-2 {
		t.Fatalf("far cube latency %d not above near %d by ~6 hops", far, near)
	}
}

func TestPoolCapacityParallelism(t *testing.T) {
	// Same bank-hammering stream: a 4-cube chain spreads pages across
	// cubes, so bank contention drops relative to one cube.
	single := NewPool(DefaultPoolConfig(1), sim.NewStats())
	quad := NewPool(DefaultPoolConfig(4), sim.NewStats())
	var lastSingle, lastQuad uint64
	for i := 0; i < 256; i++ {
		addr := memmap.Addr(i * 4096) // one access per page, same vault/bank pattern per cube
		lastSingle = single.ReadLine(addr, 0)
		lastQuad = quad.ReadLine(addr, 0)
	}
	_ = lastQuad
	if lastSingle == 0 {
		t.Fatal("no latency measured")
	}
}

// TestPoolAtomicRouting checks that an atomic runs in its owning
// cube's vault logic: one atomic to cube 0 and two to cube 1, all to
// vault 4, leave exactly that many integer FUs reserved in each cube.
func TestPoolAtomicRouting(t *testing.T) {
	st := sim.NewStats()
	p := NewPool(DefaultPoolConfig(2), st)
	a0 := memmap.Addr(0x100)  // cube 0, vault 4
	a1 := memmap.Addr(0x1100) // cube 1, vault 4
	p.Atomic(hmcatomic.TwoAdd8, a0, hmcatomic.Value{}, 0)
	p.Atomic(hmcatomic.TwoAdd8, a1, hmcatomic.Value{}, 0)
	p.Atomic(hmcatomic.TwoAdd8, a1, hmcatomic.Value{}, 0)
	for i, want := range []int{1, 2} {
		reserved := 0
		for _, free := range p.cubes[i].intFU[4] {
			if free > 0 {
				reserved++
			}
		}
		if reserved != want {
			t.Fatalf("cube %d reserved %d FUs, want %d", i, reserved, want)
		}
	}
	if st.Get("hmc.atomics") != 3 {
		t.Fatalf("atomics = %d", st.Get("hmc.atomics"))
	}
}

// TestPoolPageRoundRobinProperty checks the interleaving function for
// every supported chain length: with the default 4KB granularity,
// sequential pages cycle round-robin over the chain, and every offset
// inside a page routes to the page's cube.
func TestPoolPageRoundRobinProperty(t *testing.T) {
	r := sim.NewRand(77)
	for _, cubes := range []int{1, 2, 4, 8} {
		p := NewPool(DefaultPoolConfig(cubes), sim.NewStats())
		for page := 0; page < 64; page++ {
			want := page % cubes
			base := memmap.Addr(page * 4096)
			if got := p.CubeFor(base); got != want {
				t.Fatalf("%d cubes: page %d routed to cube %d, want %d", cubes, page, got, want)
			}
			for trial := 0; trial < 8; trial++ {
				off := memmap.Addr(r.Uint64() % 4096)
				if got := p.CubeFor(base + off); got != want {
					t.Fatalf("%d cubes: page %d offset %d routed to cube %d, want %d",
						cubes, page, off, got, want)
				}
			}
		}
	}
}

// TestPoolFarCubeHopMonotonicity checks the chain-latency property:
// within a chain, an idle read to cube i is never faster when i grows
// (every pass-through hop adds latency), and across chain lengths
// 1→2→4→8 the farthest cube's idle latency is weakly monotone — longer
// chains cannot shorten the farthest round trip. Fresh pools per probe
// keep every measurement contention-free.
func TestPoolFarCubeHopMonotonicity(t *testing.T) {
	idleRead := func(cubes, cube int) uint64 {
		p := NewPool(DefaultPoolConfig(cubes), sim.NewStats())
		return p.ReadLine(memmap.Addr(cube*4096), 0)
	}
	for _, cubes := range []int{2, 4, 8} {
		prev := idleRead(cubes, 0)
		for i := 1; i < cubes; i++ {
			lat := idleRead(cubes, i)
			if lat < prev {
				t.Fatalf("%d cubes: cube %d idle latency %d below cube %d's %d",
					cubes, i, lat, i-1, prev)
			}
			prev = lat
		}
	}
	chains := []int{1, 2, 4, 8}
	var prevFar uint64
	for _, cubes := range chains {
		far := idleRead(cubes, cubes-1)
		if far < prevFar {
			t.Fatalf("%d-cube chain: farthest latency %d below the previous chain's %d",
				cubes, far, prevFar)
		}
		prevFar = far
	}
}

func TestPoolValidation(t *testing.T) {
	for _, n := range []int{0, 3, 16} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("chain length %d accepted", n)
				}
			}()
			NewPool(DefaultPoolConfig(n), sim.NewStats())
		}()
	}
}
