// Ablation benchmarks for the modeling decisions DESIGN.md §6 calls out.
// Each ablation disables one mechanism and reports how the headline
// numbers move, quantifying how much of the paper's story each mechanism
// carries.
package graphpim

import (
	"fmt"
	"sync"
	"testing"

	"graphpim/internal/gframe"
	"graphpim/internal/machine"
	"graphpim/internal/trace"
	"graphpim/internal/workloads"
)

var ablationOnce sync.Map

func ablationPrint(key, format string, args ...any) {
	if _, done := ablationOnce.LoadOrStore(key, true); !done {
		fmt.Printf(format, args...)
	}
}

// ablationRun simulates DC (the purest atomic-throughput workload) on a
// small graph under a tweaked machine configuration.
func ablationRun(b *testing.B, cost gframe.CostModel, mutate func(*machine.Config), kind string) machine.Result {
	b.Helper()
	g := GenerateLDBC(2048, 7)
	fw := gframe.New(g, 16, cost)
	w := workloads.NewDC()
	w.Run(fw)
	var cfg machine.Config
	switch kind {
	case "baseline":
		cfg = machine.Baseline()
	case "graphpim":
		cfg = machine.GraphPIM(false)
		cfg.POU.PMRActive = true
	}
	cfg.Cache.L2Size = 128 << 10
	cfg.Cache.L3Size = 128 << 10
	if mutate != nil {
		mutate(&cfg)
	}
	return machine.RunTrace(cfg, fw.Space(), fw.Trace())
}

// BenchmarkAblationFenceSemantics quantifies decision 1: host atomics as
// full fences. Removing the fence (modeling atomics as plain RMWs with no
// freeze would require a different core) is approximated here by comparing
// the baseline against the same trace with atomics stripped — the fence
// cost is the entire gap GraphPIM can reclaim.
func BenchmarkAblationFenceSemantics(b *testing.B) {
	cost := gframe.DefaultCostModel()
	var with, without uint64
	for i := 0; i < b.N; i++ {
		g := GenerateLDBC(2048, 7)
		fw := gframe.New(g, 16, cost)
		workloads.NewDC().Run(fw)
		cfg := machine.Baseline()
		cfg.Cache.L2Size = 128 << 10
		cfg.Cache.L3Size = 128 << 10
		tr := fw.Trace()
		with = machine.RunTrace(cfg, fw.Space(), tr).Cycles
		without = machine.RunSource(cfg, fw.Space(), trace.StripSource(tr)).Cycles
	}
	ablationPrint("fence", "\nablation[fence]: DC baseline %d cycles with atomics, %d without (fence cost %.0f%%)\n",
		with, without, (1-float64(without)/float64(with))*100)
}

// BenchmarkAblationScatteredStructure quantifies decision 3: GraphBIG's
// pointer-chase adjacency vs a dense sequential CSR. The dense layout
// makes the non-atomic portion cache-friendly and inflates GraphPIM's
// apparent speedup — which is why the scattered layout is the default.
func BenchmarkAblationScatteredStructure(b *testing.B) {
	var sScattered, sDense float64
	for i := 0; i < b.N; i++ {
		for _, scattered := range []bool{true, false} {
			cost := gframe.DefaultCostModel()
			cost.ScatteredStructure = scattered
			base := ablationRun(b, cost, nil, "baseline")
			gpim := ablationRun(b, cost, nil, "graphpim")
			if scattered {
				sScattered = gpim.Speedup(base)
			} else {
				sDense = gpim.Speedup(base)
			}
		}
	}
	ablationPrint("scatter", "\nablation[structure]: DC GraphPIM speedup %.2fx with pointer-chase adjacency, %.2fx with dense CSR\n",
		sScattered, sDense)
}

// BenchmarkAblationUCOrdering quantifies decision 5: the UC issue gap.
// With the gap removed, uncacheable sub-line reads enjoy full MLP and
// cache bypassing becomes a free win even for cache-friendly scans,
// contradicting the paper's kCore and small-graph results.
func BenchmarkAblationUCOrdering(b *testing.B) {
	var withGap, noGap float64
	for i := 0; i < b.N; i++ {
		g := GenerateLDBC(2048, 7)
		fw := gframe.New(g, 16, gframe.DefaultCostModel())
		workloads.NewKCore(3).Run(fw)
		tr := fw.Trace()
		base := machine.Baseline()
		base.Cache.L2Size = 128 << 10
		base.Cache.L3Size = 128 << 10
		baseRes := machine.RunTrace(base, fw.Space(), tr)
		for _, gap := range []uint64{16, 0} {
			cfg := machine.GraphPIM(false)
			cfg.POU.PMRActive = true
			cfg.Cache.L2Size = 128 << 10
			cfg.Cache.L3Size = 128 << 10
			cfg.UCIssueGap = gap
			r := machine.RunTrace(cfg, fw.Space(), tr)
			if gap > 0 {
				withGap = r.Speedup(baseRes)
			} else {
				noGap = r.Speedup(baseRes)
			}
		}
	}
	ablationPrint("ucgap", "\nablation[uc-ordering]: kCore GraphPIM speedup %.2fx with UC ordering, %.2fx without\n",
		withGap, noGap)
}

// BenchmarkAblationFUCount is the Fig. 11 ablation in miniature: one FU
// per vault vs sixteen.
func BenchmarkAblationFUCount(b *testing.B) {
	var fu16, fu1 uint64
	for i := 0; i < b.N; i++ {
		fu16 = ablationRun(b, gframe.DefaultCostModel(), func(c *machine.Config) {
			c.HMC.IntFUsPerVault = 16
		}, "graphpim").Cycles
		fu1 = ablationRun(b, gframe.DefaultCostModel(), func(c *machine.Config) {
			c.HMC.IntFUsPerVault = 1
		}, "graphpim").Cycles
	}
	ablationPrint("fu", "\nablation[fu-count]: DC GraphPIM %d cycles @16 FU/vault, %d @1 FU/vault (%.1f%% difference)\n",
		fu16, fu1, (float64(fu1)/float64(fu16)-1)*100)
}
