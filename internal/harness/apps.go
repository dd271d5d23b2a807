package harness

import (
	"fmt"

	"graphpim/internal/analytic"
	"graphpim/internal/energy"
	"graphpim/internal/gframe"
	"graphpim/internal/graph"
	"graphpim/internal/machine"
	"graphpim/internal/workloads"
)

// fig15Energy reproduces Fig. 15: uncore energy breakdown normalized to
// the baseline (caches / HMC link / HMC FU / HMC logic layer / HMC DRAM).
func fig15Energy() Experiment {
	return Experiment{
		ID:    "fig15-energy",
		Paper: "Figure 15",
		Title: "Breakdown of uncore energy consumption normalized to baseline",
		Run: func(e *Env) *Table {
			t := &Table{ID: "fig15-energy", Title: "Uncore energy (normalized to baseline total)",
				Headers: []string{"workload", "config", "Caches", "HMC Link", "HMC FU", "HMC LL", "HMC DRAM", "total"}}
			p := energy.DefaultParams()
			var sumReduction float64
			var n int
			for _, w := range workloads.EvalSet() {
				base := e.Run(w, KindBaseline)
				gpim := e.Run(w, KindGraphPIM)
				cacheMB := energy.CacheMB(e.Config(KindBaseline, w))
				eb := energy.Compute(p, base, cacheMB)
				eg := energy.Compute(p, gpim, cacheMB)
				norm := eb.Total()
				for _, pair := range []struct {
					cfg string
					b   energy.Breakdown
				}{{base.Config, eb}, {gpim.Config, eg}} {
					t.AddRow(w.Info().Name, pair.cfg,
						f2(pair.b.Caches/norm), f2(pair.b.HMCLink/norm), f2(pair.b.HMCFU/norm),
						f2(pair.b.HMCLL/norm), f2(pair.b.HMCDRAM/norm), f2(pair.b.Total()/norm))
				}
				sumReduction += 1 - eg.Total()/norm
				n++
			}
			t.AddRow("average", "GraphPIM reduction", "", "", "", "", "", pct(sumReduction/float64(n)))
			t.Notes = append(t.Notes,
				"paper shape: ~37% average uncore energy reduction; savings from caches, links, and logic layer;",
				"FP FU energy visible only for BC/PRank; GraphPIM never exceeds baseline energy")
			return t
		},
	}
}

// appRun executes one real-world application on its graph and returns the
// per-config results.
func (e *Env) appRun(name string) (base, gpim machine.Result) {
	var w workloads.Workload
	var mkGraph func() *graph.Graph
	switch name {
	case "FD":
		w = workloads.NewFraudDetection(3)
		mkGraph = func() *graph.Graph { return graph.BitcoinLike(e.AppVertices, e.Seed) }
	case "RS":
		w = workloads.NewRecommender(24)
		mkGraph = func() *graph.Graph { return graph.TwitterLike(e.AppVertices, e.Seed) }
	default:
		panic("harness: unknown application " + name)
	}
	key := traceKey{"app:" + name, e.AppVertices, e.Seed}
	run := func(kind ConfigKind) machine.Result {
		rkey := runKey{"app:" + name, e.AppVertices, kind, false, "", e.Seed}
		return e.runCell(rkey, nil, func() machine.Result {
			tr := e.traceCell(key, func() *tracedRun {
				return e.buildTraced(mkGraph(), func(fw *gframe.Framework) workloads.Result {
					return w.Run(fw)
				})
			})
			return e.simulate(tr.stream, tr.fw.Space(), e.Config(kind, w))
		})
	}
	return run(KindBaseline), run(KindGraphPIM)
}

// table8AppCounters reproduces Table VIII: the performance-counter profile
// of the two applications plus the analytical-model outputs.
func table8AppCounters() Experiment {
	return Experiment{
		ID:    "table8-appcounters",
		Paper: "Table VIII",
		Title: "Real-world application experiment results (counters + model)",
		Run: func(e *Env) *Table {
			t := &Table{ID: "table8-appcounters", Title: "Application counter profile",
				Headers: []string{"event", "FD", "RS"}}
			type row struct {
				ipc, mpki, hit, backend, pimPct, hostOv, cacheChk string
			}
			out := map[string]row{}
			for _, app := range []string{"FD", "RS"} {
				base, _ := e.appRun(app)
				st := base.Stats
				l3a, l3m := st["cache.l3.access"], st["cache.l3.miss"]
				total := float64(base.Cycles) * float64(e.Threads)
				active := float64(st["cpu.cycles.active"])
				frontend := float64(st["cpu.frontend_cycles"])
				badspec := float64(st["cpu.badspec_cycles"])
				backend := (total - active - frontend - badspec) / total
				atomics := float64(st["mem.host_atomics"])
				in := analytic.Measure(base, e.Threads)
				out[app] = row{
					ipc:      f3(base.IPC(e.Threads)),
					mpki:     f2(base.MPKI("cache.l3")),
					hit:      ratioStr(l3a-l3m, l3a, pct),
					backend:  pct(backend),
					pimPct:   pct(atomics / float64(base.Instructions)),
					hostOv:   pct(in.HostOverheadPct()),
					cacheChk: pct(in.CacheCheckPct()),
				}
			}
			t.AddRow("IPC", out["FD"].ipc, out["RS"].ipc)
			t.AddRow("LLC MPKI", out["FD"].mpki, out["RS"].mpki)
			t.AddRow("LLC hit rate", out["FD"].hit, out["RS"].hit)
			t.AddRow("Backend stall", out["FD"].backend, out["RS"].backend)
			t.AddRow("%PIM-Atomic", out["FD"].pimPct, out["RS"].pimPct)
			t.AddRow("Total host overhead (model)", out["FD"].hostOv, out["RS"].hostOv)
			t.AddRow("Total cache checking (model)", out["FD"].cacheChk, out["RS"].cacheChk)
			t.Notes = append(t.Notes,
				"paper profile: IPC ~0.1, LLC MPKI ~21, low hit rates, >80% backend stall, few % PIM-atomic")
			return t
		},
	}
}

// fig16ModelValidation reproduces Fig. 16: the analytical model's speedup
// predictions against full simulation.
func fig16ModelValidation() Experiment {
	return Experiment{
		ID:    "fig16-model-validation",
		Paper: "Figure 16",
		Title: "Analytical model vs architectural simulation",
		Run: func(e *Env) *Table {
			t := &Table{ID: "fig16-model-validation", Title: "Speedup over baseline: simulated vs modeled",
				Headers: []string{"workload", "simulation", "analytical model", "error"}}
			var vals []analytic.Validation
			for _, w := range workloads.EvalSet() {
				base := e.Run(w, KindBaseline)
				gpim := e.Run(w, KindGraphPIM)
				in := analytic.Measure(base, e.Threads)
				v := analytic.Validation{
					Workload:  w.Info().Name,
					Simulated: gpim.Speedup(base),
					Modeled:   in.PredictedSpeedup(),
				}
				vals = append(vals, v)
				t.AddRow(v.Workload, speedupStr(v.Simulated), speedupStr(v.Modeled),
					fmt.Sprintf("%.1f%%", v.ErrorPct()))
			}
			t.AddRow("mean error", "", "", fmt.Sprintf("%.1f%%", analytic.MeanError(vals)))
			t.Notes = append(t.Notes,
				"paper: single-digit error for most workloads, 7.7% on average")
			return t
		},
	}
}

// fig17RealWorld reproduces Fig. 17: performance and energy of the two
// real-world applications. The paper projects through the analytical
// model; this reproduction simulates directly and shows the model beside
// the simulation.
func fig17RealWorld() Experiment {
	return Experiment{
		ID:    "fig17-realworld",
		Paper: "Figure 17",
		Title: "Real-world application performance and energy",
		Run: func(e *Env) *Table {
			t := &Table{ID: "fig17-realworld", Title: "FD and RS under GraphPIM",
				Headers: []string{"application", "speedup (sim)", "speedup (model)", "energy reduction"}}
			p := energy.DefaultParams()
			for _, app := range []string{"FD", "RS"} {
				base, gpim := e.appRun(app)
				in := analytic.Measure(base, e.Threads)
				cacheMB := 1.0
				eb := energy.Compute(p, base, cacheMB)
				eg := energy.Compute(p, gpim, cacheMB)
				t.AddRow(app, speedupStr(gpim.Speedup(base)), speedupStr(in.PredictedSpeedup()),
					pct(1-eg.Total()/eb.Total()))
			}
			t.Notes = append(t.Notes,
				"paper: FD 1.5x speedup / 32% energy reduction; RS 1.9x / 48%")
			return t
		},
	}
}
