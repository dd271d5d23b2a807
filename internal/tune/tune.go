// Package tune implements a lightweight placement autotuner in the
// style of PyGim (SIGMETRICS'25): a cheap profiling pass over the built
// graph and the trace's summary counts — no simulation — picks the
// offload placement (host, PIM, or hybrid U-PEI) for one
// (workload, backend) pair. A Decision names one of the paper's static
// configurations; the caller assembles that configuration, so machines
// negotiate through the same pou.Negotiate path the fixed
// configurations use.
//
// The features deliberately mirror what a runtime could measure before
// committing a placement:
//
//   - degree skew (coefficient of variation of out-degree): a
//     heavy-tailed graph concentrates atomic updates on a few hot
//     vertices, whose cache lines stay resident — locality a
//     PEI-style host-on-hit hybrid can exploit;
//   - property footprint vs LLC capacity: when the property array
//     fits in cache, atomics mostly hit and offloading them throws
//     that locality away;
//   - atomic density per retired instruction: when atomics are rare,
//     neither offload path can pay for the PMR's UC side effects.
package tune

import (
	"fmt"
	"math"

	"graphpim/internal/graph"
	"graphpim/internal/hmcatomic"
	"graphpim/internal/pou"
	"graphpim/internal/trace"
)

// Features is the profile the tuner decides from.
type Features struct {
	// Vertices and Edges are the graph dimensions.
	Vertices int
	Edges    int
	// DegreeCV is the coefficient of variation (stddev/mean) of the
	// out-degree distribution — the skew signal.
	DegreeCV float64
	// PropertyBytes is the allocated property-segment footprint.
	PropertyBytes uint64
	// LLCBytes is the simulated last-level cache capacity.
	LLCBytes uint64
	// AtomicsPerKiloInstr is the atomic density: KindAtomic records per
	// 1000 dynamic instructions.
	AtomicsPerKiloInstr float64
	// Extended marks a workload whose atomics need the FP extension.
	Extended bool
}

// FootprintRatio is PropertyBytes/LLCBytes (0 when the LLC size is
// unknown).
func (f Features) FootprintRatio() float64 {
	if f.LLCBytes == 0 {
		return 0
	}
	return float64(f.PropertyBytes) / float64(f.LLCBytes)
}

// TotalCounts sums a source's exact per-thread stream totals — free for
// both materialized traces and spill-backed streams (the v2 footer
// carries them), so profiling never touches instruction payloads.
func TotalCounts(src trace.Source) trace.Counts {
	var c trace.Counts
	for t := 0; t < src.NumThreads(); t++ {
		n := src.Cursor(t).Counts()
		c.Records += n.Records
		c.Instrs += n.Instrs
		c.Atomics += n.Atomics
	}
	return c
}

// Profile computes the feature vector for one prospective run. counts
// must be the whole-trace totals (the sum of per-thread Cursor counts —
// exact and free for both materialized and streamed traces, which carry
// them in the footer).
func Profile(g *graph.Graph, propertyBytes, llcBytes uint64, counts trace.Counts, extended bool) Features {
	n := g.NumVertices()
	f := Features{
		Vertices:      n,
		Edges:         g.NumEdges(),
		PropertyBytes: propertyBytes,
		LLCBytes:      llcBytes,
		Extended:      extended,
	}
	if n > 0 {
		mean := float64(g.NumEdges()) / float64(n)
		var acc float64
		for v := 0; v < n; v++ {
			d := float64(g.OutDegree(graph.VID(v))) - mean
			acc += d * d
		}
		if mean > 0 {
			f.DegreeCV = math.Sqrt(acc/float64(n)) / mean
		}
	}
	if counts.Instrs > 0 {
		f.AtomicsPerKiloInstr = 1000 * float64(counts.Atomics) / float64(counts.Instrs)
	}
	return f
}

// Placement is the tuner's choice for where offload candidates execute.
type Placement string

// The three placements, matching the CLI's -policy values.
const (
	// PlaceHost keeps atomics on the cores (the Baseline datapath).
	PlaceHost Placement = "host"
	// PlacePIM offloads PMR atomics to the memory-side units with the
	// UC bypass (the GraphPIM datapath).
	PlacePIM Placement = "pim"
	// PlaceUPEI offloads through the idealized locality monitor
	// (the U-PEI datapath).
	PlaceUPEI Placement = "upei"
)

// Decision is one placement choice with its explanation.
type Decision struct {
	Placement Placement
	// Reason is the one-line explanation recorded into run manifests.
	Reason string
	// Features is the profile the decision was made from.
	Features Features
}

// Decision thresholds. They were calibrated against the default-env
// ext-autotune matrix (EXPERIMENTS.md): the qualitative shape — sparse
// atomics favor the host, cache-resident properties favor the hybrid,
// dense misses favor PIM — is the PyGim/GraphPIM argument, the exact
// cutoffs are fitted to this simulator.
const (
	// MinAtomicsPerKiloInstr: below this density the offload paths
	// cannot amortize the PMR's UC side effects.
	MinAtomicsPerKiloInstr = 1.0
	// CacheResidentRatio: below this property-footprint/LLC ratio the
	// working set is effectively cache-resident and host-on-hit wins.
	CacheResidentRatio = 1.0
)

// Choose picks the placement for a profiled run against a substrate.
// The substrate veto logic mirrors pou.Negotiate: a placement that the
// backend would wholesale-degrade anyway is never chosen, so the
// decision is honest about what will actually execute.
func Choose(f Features, sub pou.Substrate) Decision {
	if !sub.CanOffloadBasic() {
		return Decision{PlaceHost, "substrate has no PIM units; offload would degrade to host anyway", f}
	}
	if f.Extended && sub.Caps != nil && !sub.Caps.CanOffload(hmcatomic.ExtFPAdd64) && !sub.Bundle {
		return Decision{PlaceHost, "FP atomics have no near-memory executor on this substrate", f}
	}
	if f.AtomicsPerKiloInstr < MinAtomicsPerKiloInstr {
		return Decision{PlaceHost,
			fmt.Sprintf("atomic density %.2f/kinstr below %.2f; offload cannot pay", f.AtomicsPerKiloInstr, MinAtomicsPerKiloInstr), f}
	}
	if f.FootprintRatio() < CacheResidentRatio {
		return Decision{PlaceUPEI,
			fmt.Sprintf("property footprint %.2fx LLC is cache-resident; host-on-hit keeps the locality", f.FootprintRatio()), f}
	}
	return Decision{PlacePIM,
		fmt.Sprintf("dense atomics (%.1f/kinstr) over a %.1fx-LLC footprint; offload avoids the miss path", f.AtomicsPerKiloInstr, f.FootprintRatio()), f}
}

// Counters renders the profile and choice as scaled-integer counters
// for injection into a run's stats map (obs records round-trip them
// through JSONL, so replay can explain the placement). Floats are
// stored in milli-units.
func (d Decision) Counters() map[string]uint64 {
	var code uint64
	switch d.Placement {
	case PlacePIM:
		code = 1
	case PlaceUPEI:
		code = 2
	}
	return map[string]uint64{
		"tune.placement":                code,
		"tune.degree_cv_milli":          uint64(d.Features.DegreeCV * 1000),
		"tune.footprint_ratio_milli":    uint64(d.Features.FootprintRatio() * 1000),
		"tune.atomics_per_kinstr_milli": uint64(d.Features.AtomicsPerKiloInstr * 1000),
	}
}
