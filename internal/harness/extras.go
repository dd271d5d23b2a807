package harness

import (
	"fmt"
	"math"

	"graphpim/internal/gframe"
	"graphpim/internal/graph"
	"graphpim/internal/machine"
	"graphpim/internal/mem/backends"
	"graphpim/internal/mem/ddr"
	"graphpim/internal/replicate"
	"graphpim/internal/workloads"
)

// Extras returns experiments beyond the paper's tables and figures:
// reproductions of behaviours the paper discusses qualitatively.
func Extras() []Experiment {
	return []Experiment{extHybridMemory(), extPrefetch(), extSeedStability(),
		extVaultMapping(), extMultiCube(), extDependentBlock(), extDDRHost(),
		extBackendShootout(), extAutotune()}
}

// extAutotune pits the internal/tune placement autotuner against every
// static policy, per memory substrate, over the GNN/SpMV workload
// family. Each cell's speedup is measured against the same substrate's
// baseline; the per-substrate geomean rows summarize, and the verdict
// note counts the substrates where the tuner's geomean matches or beats
// the best static policy's. The "auto picks" column comes straight from
// Result.Config ("Auto(GraphPIM)" etc.), so a replayed table explains
// its placements without re-deciding.
func extAutotune() Experiment {
	return Experiment{
		ID:    "ext-autotune",
		Paper: "PAPERS.md (PyGim); Section VII premise (policy sensitivity)",
		Title: "Autotuned offload placement vs static policies, per memory substrate",
		Run: func(e *Env) *Table {
			t := &Table{ID: "ext-autotune",
				Title:   "GNN/SpMV family: speedup over each substrate's baseline",
				Headers: []string{"backend", "workload", "GraphPIM", "U-PEI", "Auto", "auto picks"}}
			family := workloads.GNNSet()
			wins := 0
			for _, kind := range backends.Kinds() {
				kind := kind
				adjust := func(*machine.Config) {}
				if kind != "hmc" {
					adjust = func(c *machine.Config) { c.Mem, _ = backends.DefaultConfig(kind) }
				}
				logSums := make([]float64, 3)
				for _, w := range family {
					base := e.RunVariant(w, KindBaseline, kind, adjust)
					gpim := e.RunVariant(w, KindGraphPIM, kind, adjust)
					upei := e.RunVariant(w, KindUPEI, kind, adjust)
					auto := e.RunAutoVariant(w, kind, adjust)
					row := []string{kind, w.Info().Name}
					for i, s := range []float64{gpim.Speedup(base), upei.Speedup(base), auto.Speedup(base)} {
						logSums[i] += math.Log(s)
						row = append(row, speedupStr(s))
					}
					row = append(row, auto.Config)
					t.AddRow(row...)
				}
				geo := make([]float64, 3)
				for i, ls := range logSums {
					geo[i] = math.Exp(ls / float64(len(family)))
				}
				if geo[2] >= math.Max(geo[0], geo[1])-1e-9 {
					wins++
				}
				t.AddRow(kind, "geomean",
					speedupStr(geo[0]), speedupStr(geo[1]), speedupStr(geo[2]), "")
			}
			t.Notes = append(t.Notes,
				fmt.Sprintf("the tuner's geomean matches or beats the best static policy on %d/4 substrates", wins),
				"the tuner never sees simulated cycles: it profiles degree skew, property footprint vs LLC,",
				"and atomic density from the trace footer, then routes through the same pou.Negotiate",
				"negotiation the static configurations use (ddr degrades every policy to 1.00x wholesale)")
			return t
		},
	}
}

// extBackendShootout runs every workload across all four registered
// memory substrates × baseline/GraphPIM and reports the offload speedup
// per backend. The columns order themselves by atomic capability and
// proximity: the HMC cube's fixed-function vault FUs win most, the
// LPDDR5X-PIM bank-group MACs (slower PIM clock domain, mobile
// bandwidth) and the UPMEM-style vault cores (issue-rate-limited scalar
// bundles) land in between, and the PIM-less DDR host degrades to
// exactly 1.00x via capability negotiation.
func extBackendShootout() Experiment {
	return Experiment{
		ID:    "ext-backend-shootout",
		Paper: "Section II premise; PAPERS.md (LP5X-PIM Sim, ALPHA-PIM)",
		Title: "Backend shootout: GraphPIM speedup per memory substrate",
		Run: func(e *Env) *Table {
			t := &Table{ID: "ext-backend-shootout",
				Title:   "GraphPIM speedup over the matching baseline, per memory backend",
				Headers: []string{"workload", "hmc", "ddr", "lpddr", "vault"}}
			logSums := make([]float64, 4)
			for _, w := range workloads.EvalSet() {
				base := e.Run(w, KindBaseline)
				gpim := e.Run(w, KindGraphPIM)
				speedups := []float64{gpim.Speedup(base)}
				for _, kind := range []string{"ddr", "lpddr", "vault"} {
					kind := kind
					onKind := func(c *machine.Config) { c.Mem, _ = backends.DefaultConfig(kind) }
					b := e.RunVariant(w, KindBaseline, kind, onKind)
					g := e.RunVariant(w, KindGraphPIM, kind, onKind)
					speedups = append(speedups, g.Speedup(b))
				}
				row := []string{w.Info().Name}
				for i, s := range speedups {
					logSums[i] += math.Log(s)
					row = append(row, speedupStr(s))
				}
				t.AddRow(row...)
			}
			n := float64(len(workloads.EvalSet()))
			geo := []string{"geomean"}
			for _, ls := range logSums {
				geo = append(geo, speedupStr(math.Exp(ls/n)))
			}
			t.AddRow(geo...)
			t.Notes = append(t.Notes,
				"each column is GraphPIM vs the baseline on the same substrate; the geomean tracks atomic",
				"capability: fixed-function cube FUs (hmc) > bank-group MACs (lpddr, slow PIM clock) >",
				"scalar vault cores (vault, issue-rate-limited) > no PIM units (ddr, 1.00x by wholesale",
				"capability negotiation). Per workload the slower substrates can beat hmc's *relative* win",
				"(kCore, BC): a host atomic's RFO line fill costs far more on mobile/issue-limited parts,",
				"so removing it is worth more against their own baseline")
			return t
		},
	}
}

// extDDRHost swaps the memory substrate: the same GraphBIG traces run
// on a conventional DDR4-style host memory with no PIM units. The HMC
// columns show the paper's result; the DDR columns show (a) what the
// substrate itself costs relative to HMC and (b) that a GraphPIM
// configuration on a PIM-less backend degrades gracefully to exactly
// the conventional datapath — the capability negotiation turns the PMR
// policy off, so its "speedup" over the DDR baseline is 1.00x by
// construction, not a crash.
func extDDRHost() Experiment {
	return Experiment{
		ID:    "ext-ddr-host",
		Paper: "Section II (conventional-system premise)",
		Title: "Memory-backend swap: HMC cube vs DDR host memory",
		Run: func(e *Env) *Table {
			t := &Table{ID: "ext-ddr-host",
				Title:   "Speedups by memory backend (HMC vs PIM-less DDR)",
				Headers: []string{"workload", "GPIM/base (HMC)", "DDR base vs HMC base", "GPIM/base (DDR)"}}
			onDDR := func(c *machine.Config) { c.Mem = ddr.DefaultConfig() }
			for _, w := range workloads.EvalSet() {
				base := e.Run(w, KindBaseline)
				gpim := e.Run(w, KindGraphPIM)
				dBase := e.RunVariant(w, KindBaseline, "ddr", onDDR)
				dGpim := e.RunVariant(w, KindGraphPIM, "ddr", onDDR)
				t.AddRow(w.Info().Name,
					speedupStr(gpim.Speedup(base)),
					speedupStr(dBase.Speedup(base)),
					speedupStr(dGpim.Speedup(dBase)))
			}
			t.Notes = append(t.Notes,
				"the DDR backend has no PIM units: CanOffload rejects every atomic, the PMR policy",
				"degrades wholesale, and GraphPIM-on-DDR is cycle-identical to baseline-on-DDR (1.00x)")
			return t
		},
	}
}

// extHybridMemory explores Section III-B's hybrid HMC+DRAM discussion:
// "the graph property data allocated in DRAMs will be processed in the
// conventional way, while the graph data in HMCs can still receive the
// same benefit from PIM-Atomic." The experiment sweeps the fraction of
// the property array placed in the PIM memory region and reports the
// GraphPIM speedup, which should scale smoothly between the baseline and
// the full-PMR result.
func extHybridMemory() Experiment {
	return Experiment{
		ID:    "ext-hybrid-memory",
		Paper: "Section III-B (discussion)",
		Title: "GraphPIM speedup vs fraction of graph property in the PMR",
		Run: func(e *Env) *Table {
			coverages := []float64{0, 0.25, 0.5, 0.75, 1}
			headers := []string{"workload"}
			for _, c := range coverages {
				headers = append(headers, fmt.Sprintf("%.0f%% PMR", c*100))
			}
			t := &Table{ID: "ext-hybrid-memory",
				Title:   "Speedup over baseline by PMR coverage (hybrid HMC+DRAM)",
				Headers: headers}
			for _, name := range []string{"BFS", "DC"} {
				w := mustWorkload(name)
				// Each coverage point is its own trace (PMR coverage
				// changes where the property array is allocated).
				hybridRun := func(cov float64, kind ConfigKind) machine.Result {
					label := fmt.Sprintf("hybrid:%s@%g", name, cov)
					rkey := runKey{label, e.Vertices, kind, false, "", e.Seed}
					return e.runCell(rkey, func() machine.Result {
						tr := e.traceCell(traceKey{label, e.Vertices, e.Seed}, func() *tracedRun {
							return e.buildTraced(e.Graph(e.Vertices), func(fw *gframe.Framework) workloads.Result {
								fw.SetPMRCoverage(cov)
								return w.Run(fw)
							})
						})
						return machine.RunSource(e.Config(kind, w), tr.fw.Space(), tr.stream)
					})
				}
				row := []string{name}
				baseCycles := hybridRun(coverages[0], KindBaseline).Cycles
				for _, cov := range coverages {
					gp := hybridRun(cov, KindGraphPIM)
					var sp float64
					if gp.Cycles > 0 {
						sp = float64(baseCycles) / float64(gp.Cycles)
					}
					row = append(row, speedupStr(sp))
				}
				t.Rows = append(t.Rows, row)
			}
			t.Notes = append(t.Notes,
				"0% coverage equals the baseline; the full benefit needs full coverage",
				"partial coverage can dip below baseline: host atomics to the DRAM share are fences that",
				"must wait for outstanding PIM round trips, so interleaving the two serializes on HMC latency —",
				"hybrid systems want partition- or phase-level separation, not per-vertex interleaving")
			return t
		},
	}
}

// extPrefetch tests Section II-C's claim that "it is challenging to
// improve cache performance via conventional prefetching": a next-line
// L3 prefetcher is added to the baseline and its effect on the
// atomic-heavy workloads is measured. The prefetcher helps streaming
// structure scans a little and graph-property access not at all — it
// cannot substitute for PIM offloading.
func extPrefetch() Experiment {
	return Experiment{
		ID:    "ext-prefetch",
		Paper: "Section II-C (discussion)",
		Title: "Conventional prefetching vs PIM offloading on the baseline",
		Run: func(e *Env) *Table {
			t := &Table{ID: "ext-prefetch",
				Title:   "Baseline speedup from an L3 next-line prefetcher vs GraphPIM",
				Headers: []string{"workload", "prefetch d=1", "prefetch d=2", "accuracy d=2", "GraphPIM"}}
			for _, name := range []string{"BFS", "DC", "TC"} {
				w := mustWorkload(name)
				base := e.Run(w, KindBaseline)
				row := []string{name}
				var acc string
				for _, d := range []int{1, 2} {
					depth := d
					r := e.RunVariant(w, KindBaseline, fmt.Sprintf("pf%d", depth), func(c *machine.Config) {
						c.Cache.Prefetch.Depth = depth
					})
					row = append(row, speedupStr(r.Speedup(base)))
					if depth == 2 {
						acc = ratioStr(r.Stats["cache.prefetch.useful"],
							r.Stats["cache.prefetch.issued"], pct)
					}
				}
				row = append(row, acc, speedupStr(e.Run(w, KindGraphPIM).Speedup(base)))
				t.Rows = append(t.Rows, row)
			}
			t.Notes = append(t.Notes,
				"the paper's Section II-C: irregular property access defeats conventional prefetching,",
				"so the memory-subsystem bottleneck needs PIM, not smarter caching")
			return t
		},
	}
}

// extSeedStability repeats the headline measurement across several graph
// instances (different generator seeds) and reports mean and dispersion —
// the paper's single-sample results hold across instances.
func extSeedStability() Experiment {
	return Experiment{
		ID:    "ext-seed-stability",
		Paper: "methodology (robustness)",
		Title: "GraphPIM speedup stability across graph instances",
		Run: func(e *Env) *Table {
			seeds := []uint64{7, 11, 23, 41, 97}
			t := &Table{ID: "ext-seed-stability",
				Title:   "GraphPIM speedup over baseline, 5 graph instances",
				Headers: []string{"workload", "mean", "stddev", "min", "max"}}
			size := e.Vertices / 4
			if size < 512 {
				size = 512
			}
			for _, name := range []string{"BFS", "DC"} {
				w := mustWorkload(name)
				study := replicate.NewStudy()
				for _, seed := range seeds {
					seed := seed
					label := "seedstab:" + name
					tkey := traceKey{label, size, seed}
					buildTrace := func() *tracedRun {
						return e.buildTraced(graph.LDBC(size, seed), func(fw *gframe.Framework) workloads.Result {
							return w.Run(fw)
						})
					}
					seedRun := func(kind ConfigKind) machine.Result {
						return e.runCell(runKey{label, size, kind, false, "", seed}, func() machine.Result {
							tr := e.traceCell(tkey, buildTrace)
							return machine.RunSource(e.Config(kind, w), tr.fw.Space(), tr.stream)
						})
					}
					base := seedRun(KindBaseline)
					gpim := seedRun(KindGraphPIM)
					study.Add("speedup", gpim.Speedup(base))
				}
				sum := study.Get("speedup")
				t.AddRow(name, f2(sum.Mean), f3(sum.StdDev), f2(sum.Min), f2(sum.Max))
			}
			t.Notes = append(t.Notes,
				"low dispersion across instances: the headline conclusions are not seed artifacts")
			return t
		},
	}
}

// extVaultMapping sweeps the HMC address-to-vault interleaving
// granularity. HMC interleaves consecutive blocks across vaults for
// maximal parallelism; coarser interleaving concentrates consecutive
// lines in one vault and exposes bank/vault contention.
func extVaultMapping() Experiment {
	return Experiment{
		ID:    "ext-vault-mapping",
		Paper: "HMC design space (discussion)",
		Title: "Sensitivity to HMC vault-interleaving granularity",
		Run: func(e *Env) *Table {
			shifts := []int{0, 2, 4, 6}
			headers := []string{"workload"}
			for _, sh := range shifts {
				headers = append(headers, fmt.Sprintf("%dB/vault", 64<<sh))
			}
			t := &Table{ID: "ext-vault-mapping",
				Title:   "GraphPIM speedup over baseline by interleave granularity",
				Headers: headers}
			for _, name := range []string{"BFS", "DC"} {
				w := mustWorkload(name)
				base := e.Run(w, KindBaseline)
				row := []string{name}
				for _, sh := range shifts {
					shift := sh
					r := e.RunVariant(w, KindGraphPIM, fmt.Sprintf("vshift%d", shift), func(c *machine.Config) {
						c.HMC.VaultInterleaveShift = shift
					})
					row = append(row, speedupStr(r.Speedup(base)))
				}
				t.Rows = append(t.Rows, row)
			}
			t.Notes = append(t.Notes,
				"block-granular interleaving (64B) maximizes vault parallelism; coarser mappings",
				"concentrate traffic and erode the benefit only mildly for irregular access")
			return t
		},
	}
}

// extMultiCube chains multiple HMC cubes (the specification supports up
// to eight): capacity scales, addresses interleave across the chain at
// page granularity, and requests to far cubes pay pass-through hops.
// GraphPIM's benefit survives chaining — the atomics execute in whichever
// cube owns the line — with a mild latency tax on far-cube round trips.
func extMultiCube() Experiment {
	return Experiment{
		ID:    "ext-multi-cube",
		Paper: "HMC chaining (discussion)",
		Title: "GraphPIM speedup on chained HMC cubes",
		Run: func(e *Env) *Table {
			chains := []int{1, 2, 4}
			headers := []string{"workload"}
			for _, n := range chains {
				headers = append(headers, fmt.Sprintf("%d cube(s)", n))
			}
			t := &Table{ID: "ext-multi-cube",
				Title:   "GraphPIM speedup over the matching baseline by chain length",
				Headers: headers}
			for _, name := range []string{"BFS", "DC"} {
				w := mustWorkload(name)
				row := []string{name}
				for _, n := range chains {
					cubes := n
					base := e.RunVariant(w, KindBaseline, fmt.Sprintf("cubes%d", cubes), func(c *machine.Config) {
						c.HMCCubes = cubes
					})
					gpim := e.RunVariant(w, KindGraphPIM, fmt.Sprintf("cubes%d", cubes), func(c *machine.Config) {
						c.HMCCubes = cubes
					})
					row = append(row, speedupStr(gpim.Speedup(base)))
				}
				t.Rows = append(t.Rows, row)
			}
			t.Notes = append(t.Notes,
				"the PIM benefit is preserved across chain lengths; far-cube hops tax both systems alike")
			return t
		},
	}
}
