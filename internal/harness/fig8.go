package harness

import (
	"fmt"

	"graphpim/internal/machine"
	"graphpim/internal/memmap"
	"graphpim/internal/trace"
)

// extDependentBlock reproduces the mechanism illustrated in Fig. 8: the
// instructions that depend on an atomic's return value (the branch and
// task-queue scheduling after a CAS) cannot retire until the atomic
// completes, so a long-latency host atomic collapses the out-of-order
// window. The microbenchmark issues a CAS followed by K dependent
// instructions and K independent ones, sweeping K: the baseline's
// serialized atomic dominates regardless of K, while GraphPIM overlaps
// the offloaded atomic's round trip with the independent work.
func extDependentBlock() Experiment {
	return Experiment{
		ID:    "ext-dependent-block",
		Paper: "Figure 8 (illustration)",
		Title: "Dependent-instruction blocks after atomics",
		Run: func(e *Env) *Table {
			ks := []int{2, 8, 32}
			headers := []string{"dependent block"}
			headers = append(headers, "baseline cycles/op", "GraphPIM cycles/op", "speedup")
			t := &Table{ID: "ext-dependent-block",
				Title:   "Per-operation cost vs dependent-block length (synthetic CAS stream)",
				Headers: headers}
			const ops = 4000
			for _, k := range ks {
				k := k
				label := fmt.Sprintf("dep:K=%d", k)
				// runDep traces the synthetic stream into a spill and
				// replays it under cfg. The trace is tiny, so each config
				// cell rebuilds it instead of sharing a trace memo slot.
				runDep := func(cfg machine.Config) machine.Result {
					sp := memmap.NewAddressSpace()
					prop := sp.PMRMalloc(1 << 22)
					f, sw := e.spill()
					defer f.Close()
					b := trace.NewStreamingBuilder(sp, sw)
					for th := 0; th < e.Threads; th++ {
						em := b.Thread(th)
						for i := 0; i < ops/e.Threads; i++ {
							v := (th*131071 + i*8191) % (1 << 15)
							em.Atomic(trace.AtomicCAS, prop+memmap.Addr(v*64), 8, false, true, i%7 == 0)
							em.DependentCompute(k)
							em.Compute(k)
						}
					}
					st, err := b.Finalize()
					if err != nil {
						panic(fmt.Sprintf("harness: finalizing trace spill: %v", err))
					}
					sp.Freeze()
					return e.simulate(st, sp, e.scaleCaches(cfg))
				}
				base := e.runCell(runKey{label, ops, KindBaseline, false, "", e.Seed}, nil, func() machine.Result {
					return runDep(machine.Baseline())
				})
				gpim := e.runCell(runKey{label, ops, KindGraphPIM, false, "", e.Seed}, nil, func() machine.Result {
					return runDep(machine.GraphPIM(false))
				})
				perOpB := float64(base.Cycles) * float64(e.Threads) / ops
				perOpG := float64(gpim.Cycles) * float64(e.Threads) / ops
				t.AddRow(fmt.Sprintf("K=%d", k),
					fmt.Sprintf("%.0f", perOpB), fmt.Sprintf("%.0f", perOpG),
					speedupStr(gpim.Speedup(base)))
			}
			t.Notes = append(t.Notes,
				"the host atomic's freeze dominates per-op cost at every K;",
				"offloading restores the out-of-order window so independent work hides the round trip")
			return t
		},
	}
}
