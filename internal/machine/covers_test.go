package machine

import (
	"reflect"
	"testing"

	"graphpim/internal/hmc"
	"graphpim/internal/hmcatomic"
	"graphpim/internal/mem"
	"graphpim/internal/mem/backends"
	"graphpim/internal/mem/channel"
	"graphpim/internal/sim"
)

// TestCoversIsExact replays synthetic traces on the Baseline and
// GraphPIM machines, then replays again every Fig. 11 FU count and
// Fig. 13 link scale the first result covers: each must give a
// DeepEqual Result. Light and heavy traffic make sure the certificate
// both admits and refuses variants.
func TestCoversIsExact(t *testing.T) {
	admitted, refused := 0, 0
	for seed, shape := range []struct{ threads, ops int }{{2, 60}, {8, 200}, {16, 300}} {
		sp, tr := synthWorkload(shape.threads, shape.ops, 1<<12, uint64(40+seed))
		for _, ran := range []Config{Baseline(), GraphPIM(false)} {
			res := RunTrace(ran, sp, tr)
			for _, fus := range []int{1, 2, 4, 8, 16} {
				for _, scale := range []float64{0.5, 1, 2} {
					other := ran
					other.HMC.IntFUsPerVault, other.HMC.LinkBWScale = fus, scale
					if other == ran {
						continue
					}
					if !res.Covers(ran, other) {
						refused++
						continue
					}
					admitted++
					if got := RunTrace(other, sp, tr); !reflect.DeepEqual(got, res) {
						t.Fatalf("%s, %d threads: covered %d FUs at link scale %g replays differently:\n%+v\n%+v",
							ran.Name, shape.threads, fus, scale, got, res)
					}
				}
			}
		}
	}
	t.Logf("certificate admitted %d variants and refused %d", admitted, refused)
	if admitted == 0 || refused == 0 {
		t.Fatalf("certificate admitted %d and refused %d variants; the traces test neither side", admitted, refused)
	}
}

// TestCoversOnlyItsFamily: Covers relates a config only to configs that
// differ in the knobs a certificate vouches for, never to an invalid
// one, and never without a certificate; on a Mem backend the HMC knobs
// are not read at all.
func TestCoversOnlyItsFamily(t *testing.T) {
	sp, tr := synthWorkload(2, 40, 1<<12, 3)
	ran := GraphPIM(false)
	res := RunTrace(ran, sp, tr)

	fewer := ran
	fewer.HMC.IntFUsPerVault = 8
	if !res.Covers(ran, fewer) {
		t.Fatal("a two-thread trace should leave 8 FUs idle enough to cover")
	}
	for name, other := range map[string]Config{
		"another machine": func() Config { c := fewer; c.NumCores = 8; return c }(),
		"another cube":    func() Config { c := fewer; c.HMC.NumVaults = 16; return c }(),
		"no FUs":          func() Config { c := ran; c.HMC.IntFUsPerVault = 0; return c }(),
	} {
		if res.Covers(ran, other) {
			t.Errorf("%s: covered", name)
		}
	}
	if (Result{}).Covers(ran, fewer) {
		t.Error("a result without a certificate covers")
	}

	ddr := ddrConfig(ran)
	other := ddr
	other.HMC.IntFUsPerVault, other.HMC.LinkBWScale, other.HMCCubes = 1, 0.5, 4
	if !(Result{}).Covers(ddr, other) {
		t.Error("a Mem backend's result does not cover a change to the HMC knobs it never reads")
	}
}

// TestSubstrateMatchesBuiltBackend: Config.Substrate answers from the
// memory configuration without building the backend. Its answers must
// be the built backend's for every backend kind's default, the default
// HMC chain, an FP-less cube and an FP-less lpddr row.
func TestSubstrateMatchesBuiltBackend(t *testing.T) {
	fpless := channelRow("lpddr")
	fpless.Cost[channel.FP] = 0
	cube := hmc.DefaultPoolConfig(2)
	cube.Cube.FPFUsPerVault = 0
	mems := []mem.Config{nil, fpless, cube}
	for _, kind := range backends.Kinds() {
		mc, _ := backends.DefaultConfig(kind)
		mems = append(mems, mc)
	}
	for _, mc := range mems {
		cfg := GraphPIM(true)
		cfg.Mem = mc
		sub := cfg.Substrate()
		built := cfg.memConfig().New(sim.NewStats())
		for i := 0; i < hmcatomic.NumOps; i++ {
			op := hmcatomic.Op(i)
			if got, want := sub.Caps.CanOffload(op), built.CanOffload(op); got != want {
				t.Errorf("%s: Substrate says CanOffload(%v) = %v, the backend %v", cfg.memConfig().Kind(), op, got, want)
			}
		}
		bb, ok := built.(mem.BundleBackend)
		if want := ok && bb.CanOffloadBundle(); sub.Bundle != want {
			t.Errorf("%s: Substrate says Bundle = %v, the backend %v", cfg.memConfig().Kind(), sub.Bundle, want)
		}
	}
}
