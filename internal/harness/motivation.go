package harness

import (
	"fmt"

	"graphpim/internal/workloads"
)

// fig1IPC reproduces Fig. 1: IPC of graph workloads on the conventional
// (baseline) system, grouped by category. The paper's observation: most
// GT/DG workloads sit far below IPC 1, often below 0.1.
func fig1IPC() Experiment {
	return Experiment{
		ID:    "fig1-ipc",
		Paper: "Figure 1",
		Title: "Instructions per cycle of graph workloads on the baseline system",
		Run: func(e *Env) *Table {
			t := &Table{ID: "fig1-ipc", Title: "Per-core IPC, baseline system",
				Headers: []string{"workload", "category", "IPC"}}
			for _, w := range workloads.All() {
				res := e.Run(w, KindBaseline)
				t.AddRow(w.Info().Name, string(w.Info().Category), f3(res.IPC(e.Threads)))
			}
			t.Notes = append(t.Notes,
				"paper shape: GT workloads below 0.1 IPC; RP compute-bound workloads higher")
			return t
		},
	}
}

// fig2Breakdown reproduces Fig. 2: top-down execution-cycle breakdown and
// cache MPKI on the baseline system. The paper's observation: backend
// stalls dominate (>90% for some workloads) and L2/L3 caches are largely
// ineffective.
func fig2Breakdown() Experiment {
	return Experiment{
		ID:    "fig2-breakdown",
		Paper: "Figure 2",
		Title: "Execution-cycle breakdown and MPKI on the baseline system",
		Run: func(e *Env) *Table {
			t := &Table{ID: "fig2-breakdown", Title: "Cycle breakdown and misses per kilo-instruction",
				Headers: []string{"workload", "Backend", "Frontend", "BadSpec", "Retiring", "L1D MPKI", "L2 MPKI", "L3 MPKI"}}
			for _, w := range workloads.All() {
				res := e.Run(w, KindBaseline)
				total := float64(res.Cycles) * float64(e.Threads)
				active := float64(res.Stats["cpu.cycles.active"])
				frontend := float64(res.Stats["cpu.frontend_cycles"])
				badspec := float64(res.Stats["cpu.badspec_cycles"])
				backend := total - active - frontend - badspec
				if backend < 0 {
					backend = 0
				}
				t.AddRow(w.Info().Name,
					pct(backend/total), pct(frontend/total), pct(badspec/total), pct(active/total),
					f2(res.MPKI("cache.l1")), f2(res.MPKI("cache.l2")), f2(res.MPKI("cache.l3")))
			}
			t.Notes = append(t.Notes,
				"paper shape: Backend dominates (up to >90%); L3 MPKI reaches the hundreds for DC-like workloads")
			return t
		},
	}
}

// fig4AtomicOverhead reproduces Fig. 4: each applicable workload runs once
// with its atomics and once with every atomic replaced by a plain
// load+store pair (the paper's micro-benchmark methodology); the gap is
// the atomic-instruction overhead.
func fig4AtomicOverhead() Experiment {
	return Experiment{
		ID:    "fig4-atomic-overhead",
		Paper: "Figure 4",
		Title: "Atomic instruction overhead on the baseline system",
		Run: func(e *Env) *Table {
			t := &Table{ID: "fig4-atomic-overhead", Title: "Slowdown from atomic instructions (with vs without)",
				Headers: []string{"workload", "with atomics", "without", "normalized time", "overhead"}}
			var sumOverhead float64
			var count int
			for _, w := range workloads.EvalSet() {
				withRes := e.Run(w, KindBaseline)
				// Replay the stripped trace under the same machine.
				stripped := e.ldbc(w, e.Vertices)
				stripped.strip = true
				withoutRes := e.cell(KindBaseline, "strip", w.Info(), stripped, nil)
				norm := float64(withRes.Cycles) / float64(withoutRes.Cycles)
				overhead := 1 - float64(withoutRes.Cycles)/float64(withRes.Cycles)
				sumOverhead += overhead
				count++
				t.AddRow(w.Info().Name,
					fmt.Sprintf("%d", withRes.Cycles), fmt.Sprintf("%d", withoutRes.Cycles),
					f2(norm), pct(overhead))
			}
			t.AddRow("average", "", "", "", pct(sumOverhead/float64(count)))
			t.Notes = append(t.Notes,
				"paper shape: ~30% average degradation from atomics, largest for DC (up to 64%)")
			return t
		},
	}
}
