package pou

import (
	"testing"

	"graphpim/internal/hmcatomic"
	"graphpim/internal/mem/backends"
	"graphpim/internal/memmap"
	"graphpim/internal/sim"
	"graphpim/internal/trace"
)

// countingCaps forwards to inner and counts every capability call.
type countingCaps struct {
	inner Caps
	calls int
}

func (c *countingCaps) CanOffload(op hmcatomic.Op) bool {
	c.calls++
	return c.inner.CanOffload(op)
}

// countingBundleCaps adds the bundle tier, counted the same way.
type countingBundleCaps struct{ countingCaps }

func (c *countingBundleCaps) CanOffloadBundle() bool {
	c.calls++
	return c.inner.(BundleCaps).CanOffloadBundle()
}

// routeAsked is the reference for Route: the same decision tree, asking
// caps about each atomic as it is routed.
func routeAsked(u *Unit, caps Caps, in trace.Instr) Decision {
	cfg := u.cfg
	active := cfg.PMRActive && u.space.InPMR(in.Addr)
	switch in.Kind {
	case trace.KindLoad, trace.KindStore:
		if cfg.UCBypass && active {
			return Decision{Path: PathUC}
		}
		return Decision{Path: PathCache}
	case trace.KindAtomic:
		cand := in.Region == memmap.RegionProperty
		if !cfg.OffloadAtomics || !active {
			return Decision{Path: PathHostAtomic, Candidate: cand}
		}
		op, ok := in.Atomic.PIMOp(cfg.ExtendedAtomics)
		if !ok {
			if bc, isBundle := caps.(BundleCaps); isBundle && bc.CanOffloadBundle() {
				return Decision{Path: PathPIM, Candidate: cand, Bundle: true}
			}
			return Decision{Path: PathHostAtomic, Candidate: cand}
		}
		if caps != nil && !caps.CanOffload(op) {
			return Decision{Path: PathHostAtomic, Op: op, Candidate: cand, Fallback: true}
		}
		return Decision{Path: PathPIM, Op: op, Candidate: cand}
	}
	return Decision{Path: PathCache}
}

// TestRouteResolvesCapsOnce builds a Unit against every substrate the
// machine offers (each backend as built, so hmc answers through
// hmc.Pool and ddr, lpddr and vault through channel.System) and against
// the FP-less and both bundle fakes. Once built, routing every record
// shape over every host atomic makes no capability call, and each
// decision equals the reference that asks caps per atomic.
func TestRouteResolvesCapsOnce(t *testing.T) {
	f := newFixture()
	subs := map[string]Caps{
		"fp-less":        fpLessCaps{},
		"bundle-accept":  bundleCaps{accept: true},
		"bundle-refuse":  bundleCaps{accept: false},
		"all (nil caps)": nil,
	}
	for _, kind := range []string{"hmc", "ddr", "lpddr", "vault"} {
		mc, ok := backends.DefaultConfig(kind)
		if !ok {
			t.Fatalf("no %s backend", kind)
		}
		subs[kind] = mc.New(sim.NewStats())
	}
	var recs []trace.Instr
	for _, addr := range []memmap.Addr{f.pmrAddr, f.propAddr, f.structAddr} {
		for _, region := range []memmap.Region{memmap.RegionProperty, memmap.RegionStruct} {
			recs = append(recs, load(addr, region),
				trace.Instr{Kind: trace.KindStore, Addr: addr, Size: 8, Region: region})
			for a := trace.AtomicNone; a <= trace.AtomicMax; a++ {
				recs = append(recs, atomic(addr, a, region))
			}
		}
	}
	cfgs := []Config{Baseline(), GraphPIM(false), GraphPIM(true), UPEI(false), UPEI(true)}
	offloads := 0
	for name, inner := range subs {
		for _, cfg := range cfgs {
			var caps, ref Caps
			var calls *int
			switch c := inner.(type) {
			case nil:
			case BundleCaps:
				cc := &countingBundleCaps{countingCaps{inner: inner}}
				caps, ref, calls = cc, c.(Caps), &cc.calls
			default:
				cc := &countingCaps{inner: inner}
				caps, ref, calls = cc, c, &cc.calls
			}
			u := NewWithCaps(cfg, f.space, caps)
			if calls != nil {
				*calls = 0
			}
			for _, in := range recs {
				got := u.Route(in)
				if calls != nil && *calls != 0 {
					t.Fatalf("%s %+v: Route(%+v) made %d capability calls", name, cfg, in, *calls)
				}
				if want := routeAsked(u, ref, in); got != want {
					t.Fatalf("%s %+v: Route(%+v) = %+v, reference %+v", name, cfg, in, got, want)
				}
				if got.Path == PathPIM {
					offloads++
				}
			}
		}
	}
	if offloads == 0 {
		t.Fatal("no record offloaded on any substrate")
	}
}
