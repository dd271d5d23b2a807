package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"

	"graphpim/internal/gframe"
	"graphpim/internal/graph"
	"graphpim/internal/harness"
	"graphpim/internal/machine"
	"graphpim/internal/obs"
	"graphpim/internal/trace"
	"graphpim/internal/workloads"
)

// workload is one of the benchmark's fixed workloads. run performs the
// setup, the timed part and the checks of one child run. Why each one is
// in the suite is recorded in BENCHMARK.json and README.md.
type workload struct {
	name string
	// setupReps is how often one run repeats its setup, so every run
	// reports a median of several set-up times even when only one or two
	// runs fit in the measurement time.
	setupReps int
	run       func(c *cell)
}

var suite = []workload{
	{"eval-quick", 3, evalQuick},
	{"replay-bfs", 1, replayBFS},
	{"gnn-substrates", 1, gnnSubstrates},
	{"stream-bfs", 1, streamBFS},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range suite {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// replayKinds are the three evaluated configurations replay-bfs times.
var replayKinds = []harness.ConfigKind{harness.KindBaseline, harness.KindUPEI, harness.KindGraphPIM}

// kindLabel is a configuration's name in metric names.
func kindLabel(k harness.ConfigKind) string {
	return strings.ToLower(strings.ReplaceAll(string(k), "-", ""))
}

// substrates are the memory backends gnn-substrates times.
var substrates = []string{"hmc", "ddr", "lpddr", "vault"}

// replayEnv is the experiment environment of the replay-scale workloads:
// it assembles machine configurations exactly as the harness does for a
// graph of n vertices, with the serial scheduler.
func replayEnv(n int) *harness.Env {
	env := harness.DefaultEnv()
	env.Vertices = n
	env.Shards = 1
	return env
}

// traceWorkload runs w functionally over g and returns its materialized
// trace and framework.
func traceWorkload(c *cell, g *graph.Graph, threads int, w workloads.Workload) (*gframe.Framework, *trace.Trace, workloads.Result) {
	var fw *gframe.Framework
	var out workloads.Result
	var tr *trace.Trace
	c.span("gframe.emit", func() {
		fw = gframe.New(g, threads, gframe.DefaultCostModel())
		out = w.Run(fw)
		tr = fw.Trace()
	})
	return fw, tr, out
}

// replayBFS: setup builds LDBC-16384, the BFS trace and the reference
// depths; the timed part replays the trace under Baseline, U-PEI and
// GraphPIM on the HMC.
func replayBFS(c *cell) {
	n := c.sc.replay
	env := replayEnv(n)
	w := workloads.NewBFS(0)
	var fw *gframe.Framework
	var tr *trace.Trace
	var depth, want []uint64
	c.setup(func() (err error) {
		var g *graph.Graph
		c.span("graph.LDBC", func() { g = graph.LDBC(n, c.seed) })
		var out workloads.Result
		fw, tr, out = traceWorkload(c, g, env.Threads, w)
		depth = out.Output.(workloads.BFSOutput).Depth
		c.span("bench.refBFS", func() { want, err = refBFS(graph.LDBCStream(n, c.seed), 0) })
		return err
	})
	c.res.Attempted = len(replayKinds)
	res := make([]machine.Result, len(replayKinds))
	c.timed(func() error {
		for i, k := range replayKinds {
			c.lap()
			cfg := env.Config(k, w)
			c.span("machine.RunTrace", func() { res[i] = machine.RunTrace(cfg, fw.Space(), tr) })
			c.res.Instrs += res[i].Instructions
		}
		return nil
	})
	c.check("bfs depths", func() error { return checkDepths(depth, want) })
	for i, k := range replayKinds {
		c.check("instructions "+string(k), func() error {
			return checkCount("instructions retired", res[i].Instructions, tr.TotalInstructions())
		})
	}
	if c.broken {
		return
	}
	for i, k := range replayKinds {
		c.res.Model["model.replay-bfs."+kindLabel(k)+".cycles"] = float64(res[i].Cycles)
	}
	c.res.Model["model.replay-bfs.graphpim_speedup"] = res[2].Speedup(res[0])
}

// gnnSubstrates: setup builds LDBC-16384 and the GNNMean trace; the timed
// part replays it under the GraphPIM placement on every memory substrate.
func gnnSubstrates(c *cell) {
	n := c.sc.replay
	w := workloads.NewGNNMean(workloads.FeatDims)
	var fw *gframe.Framework
	var tr *trace.Trace
	threads := replayEnv(n).Threads
	c.setup(func() error {
		var g *graph.Graph
		c.span("graph.LDBC", func() { g = graph.LDBC(n, c.seed) })
		fw, tr, _ = traceWorkload(c, g, threads, w)
		return nil
	})
	c.res.Attempted = len(substrates)
	res := make([]machine.Result, len(substrates))
	c.timed(func() error {
		for i, kind := range substrates {
			c.lap()
			env := replayEnv(n)
			env.Memory = kind
			cfg := env.Config(harness.KindGraphPIM, w)
			c.span("machine.RunTrace", func() { res[i] = machine.RunTrace(cfg, fw.Space(), tr) })
			c.res.Instrs += res[i].Instructions
		}
		return nil
	})
	for i, kind := range substrates {
		c.check("instructions "+kind, func() error {
			return checkCount("instructions retired", res[i].Instructions, tr.TotalInstructions())
		})
		c.check("atomics "+kind, func() error { return checkAtomicSplit(res[i].Stats, tr.CountKind(trace.KindAtomic)) })
	}
	c.check("ddr offloads nothing", func() error {
		return checkCount("ddr PIM atomics", res[1].Stats["mem.pim_atomics"], 0)
	})
	if c.broken {
		return
	}
	for i, kind := range substrates {
		c.res.Model["model.gnn-substrates."+kind+".cycles"] = float64(res[i].Cycles)
	}
}

// streamBFS: setup computes the reference depths from the edge stream;
// the timed part is the whole streamed pipeline — the two-pass graph
// build, trace emission spilled as v2 chunks, and chunked replay under
// GraphPIM — as graphpim.Run.ExecuteFull does with Options.Stream set.
func streamBFS(c *cell) {
	n := c.sc.stream
	env := replayEnv(n)
	w := workloads.NewBFS(0)
	var want []uint64
	c.setup(func() (err error) {
		c.span("bench.refBFS", func() { want, err = refBFS(graph.LDBCStream(n, c.seed), 0) })
		return err
	})
	c.res.Attempted = 1
	var res machine.Result
	var depth []uint64
	var total uint64
	c.timed(func() error {
		var g *graph.Graph
		var err error
		c.span("graph.BuildStream", func() { g, err = graph.BuildStream(graph.LDBCStream(n, c.seed), true) })
		if err != nil {
			return err
		}
		c.lap()
		spill, err := os.CreateTemp("", "graphpim-bench-spill-*")
		if err != nil {
			return err
		}
		defer spill.Close()
		// Unlinked at once: the open descriptor keeps the data alive.
		if err := os.Remove(spill.Name()); err != nil {
			return err
		}
		sw, err := trace.NewStreamWriter(spill, env.Threads, trace.DefaultChunkRecords)
		if err != nil {
			return err
		}
		var st *trace.Stream
		var fw *gframe.Framework
		c.span("gframe.emit", func() {
			fw = gframe.NewStreaming(g, env.Threads, gframe.DefaultCostModel(), sw)
			depth = w.Run(fw).Output.(workloads.BFSOutput).Depth
			fw.ReleaseProperties()
			st, err = fw.FinalizeStream()
		})
		if err != nil {
			return err
		}
		c.lap()
		cfg := env.Config(harness.KindGraphPIM, w)
		c.span("machine.RunSource", func() { res = machine.RunSource(cfg, fw.Space(), st) })
		c.res.Instrs += res.Instructions
		total = st.TotalInstructions()
		return nil
	})
	c.check("bfs depths", func() error { return checkDepths(depth, want) })
	c.check("instructions", func() error { return checkCount("instructions retired", res.Instructions, total) })
	if !c.broken {
		c.res.Model["model.stream-bfs.graphpim.cycles"] = float64(res.Cycles)
	}
}

// cellKey identifies one simulation cell of an eval-quick run.
type cellKey struct {
	workload, config, variant string
	vertices                  int
	extended                  bool
}

// evalQuick: setup builds the quick environment's LDBC graphs; the timed
// part runs the 21 paper experiments, writes their records as
// `graphpim run -out` does, and regenerates every table from the records
// as `graphpim replay` does.
func evalQuick(c *cell) {
	var env *harness.Env
	c.setup(func() error {
		env = harness.QuickEnv()
		env.Seed = c.seed
		env.Vertices, env.SweepSizes, env.AppVertices = c.sc.quick, c.sc.sweep, c.sc.app
		env.Parallelism = runtime.GOMAXPROCS(0)
		for _, v := range ldbcSizes(env) {
			c.span("graph.LDBC", func() { env.Graph(v) })
		}
		return nil
	})
	dir, err := os.MkdirTemp("", "graphpim-bench-run-*")
	if err != nil {
		c.fail("run directory", err)
		return
	}
	defer os.RemoveAll(dir)

	ctx := context.Background()
	exps := harness.All()
	var tables, replayed []string
	var runs []obs.ExperimentRun
	var recs []obs.Record
	c.timed(func() error {
		rw, err := obs.NewRunWriter(dir, env.Info(), nil)
		if err != nil {
			return err
		}
		for _, ex := range exps {
			c.lap()
			var tb *harness.Table
			var run obs.ExperimentRun
			var rs []obs.Record
			c.span("harness.RunExperimentObserved", func() { tb, run, rs, err = env.RunExperimentObserved(ctx, ex) })
			if err != nil {
				return err
			}
			c.span("obs.WriteExperiment", func() { err = rw.WriteExperiment(run, rs) })
			if err != nil {
				return err
			}
			tables = append(tables, tb.String())
			runs = append(runs, run)
			recs = append(recs, rs...)
		}
		c.span("obs.RunWriter.Close", func() { err = rw.Close(0) })
		if err != nil {
			return err
		}
		c.lap()
		var m obs.Manifest
		c.span("obs.LoadManifest", func() { m, err = obs.LoadManifest(dir) })
		if err != nil {
			return err
		}
		renv := harness.EnvFromInfo(m.Env)
		renv.Parallelism = 1
		for _, r := range m.Experiments {
			var rs []obs.Record
			c.span("obs.LoadRecords", func() { rs, err = obs.LoadRecords(dir, r) })
			if err != nil {
				return err
			}
			c.span("harness.PreloadRecords", func() { renv.PreloadRecords(rs) })
			ex, err := harness.ByID(r.ID)
			if err != nil {
				return err
			}
			var tb *harness.Table
			c.span("harness.RunExperiment", func() { tb, err = renv.RunExperiment(ctx, ex) })
			if err != nil {
				return err
			}
			replayed = append(replayed, tb.String())
		}
		return nil
	})
	if c.broken {
		return
	}

	// A cell shared by several experiments is simulated once and
	// exported once per experiment; count it once.
	seen := make(map[cellKey]bool)
	var unique []obs.Record
	for _, r := range recs {
		k := cellKey{r.Workload, r.Config, r.Variant, r.Vertices, r.Extended}
		if !seen[k] {
			seen[k] = true
			unique = append(unique, r)
		}
	}
	c.res.Attempted = len(unique)
	var cycles float64
	var cellNs int64
	for _, r := range unique {
		c.res.Instrs += r.Instructions
		cycles += float64(r.Cycles)
		cellNs += r.WallNs
	}
	c.res.Model["model.eval-quick.cycles_sum"] = cycles

	checkReplayedTables(c, exps, tables, replayed)
	checkCellInstructions(c, env, unique)

	var runNs, planNs, replayNs int64
	for _, run := range runs {
		runNs += run.WallNs
		for _, p := range run.Phases {
			switch p.Phase {
			case obs.PhasePlan:
				planNs += p.WallNs
			case obs.PhaseReplay:
				replayNs += p.WallNs
			}
		}
	}
	L := c.res.Layers
	L["harness.cells"] = float64(len(recs))
	L["harness.unique_cells"] = float64(len(unique))
	L["harness.cell_s_sum"] = float64(cellNs) / 1e9
	L["harness.parallel_eff"] = float64(cellNs) / (float64(runNs) * float64(env.Parallelism))
	L["harness.plan_s"] = float64(planNs) / 1e9
	L["harness.replay_s"] = float64(replayNs) / 1e9
	if c.tr != nil && len(recs) > 0 {
		L["obs.write_ns_per_record"] = c.tr.total("obs.WriteExperiment") * 1e9 / float64(len(recs))
		L["obs.load_ns_per_record"] = c.tr.total("obs.LoadRecords") * 1e9 / float64(len(recs))
	}
}

// checkAtomicSplit checks that every atomic of a trace executed either
// near memory or on the host.
func checkAtomicSplit(stats map[string]uint64, atomics uint64) error {
	return checkCount("PIM + host atomics", stats["mem.pim_atomics"]+stats["mem.host_atomics"], atomics)
}

// checkReplayedTables checks that the tables regenerated from the records
// are byte-identical to the tables of the run, one check per experiment.
func checkReplayedTables(c *cell, exps []harness.Experiment, tables, replayed []string) {
	c.check("replayed tables", func() error {
		if len(replayed) != len(tables) {
			return fmt.Errorf("%d tables replayed, %d run", len(replayed), len(tables))
		}
		return nil
	})
	for i := range min(len(tables), len(replayed)) {
		c.check("replay of "+exps[i].ID, func() error {
			if replayed[i] != tables[i] {
				return fmt.Errorf("replayed table differs from the run's table")
			}
			return nil
		})
	}
}

// ldbcSizes lists the LDBC graph sizes a quick environment builds.
func ldbcSizes(env *harness.Env) []int {
	sizes := []int{env.Vertices}
	for _, v := range env.SweepSizes {
		if v != env.Vertices {
			sizes = append(sizes, v)
		}
	}
	return sizes
}

// checkCellInstructions checks that every cell of a suite workload on an
// LDBC graph retired exactly its trace's instruction count. The traces are
// regenerated here, outside the timed part; the Fig. 4 "strip" variant
// replays each atomic as a load plus a store, one instruction more.
func checkCellInstructions(c *cell, env *harness.Env, cells []obs.Record) {
	type traceKey struct {
		workload string
		vertices int
	}
	expect := make(map[traceKey][2]uint64)
	isLDBC := make(map[int]bool)
	for _, v := range ldbcSizes(env) {
		isLDBC[v] = true
	}
	for _, r := range cells {
		w, err := workloads.ByName(r.Workload)
		if err != nil || !isLDBC[r.Vertices] {
			continue // application graphs and synthetic cells have no suite trace
		}
		tk := traceKey{r.Workload, r.Vertices}
		if _, ok := expect[tk]; !ok {
			fw := gframe.New(env.Graph(r.Vertices), env.Threads, gframe.DefaultCostModel())
			w.Run(fw)
			tr := fw.Trace()
			expect[tk] = [2]uint64{tr.TotalInstructions(), tr.CountKind(trace.KindAtomic)}
		}
		want := expect[tk][0]
		if r.Variant == "strip" {
			want += expect[tk][1]
		}
		c.check(fmt.Sprintf("instructions %s/%s/%s@%d", r.Workload, r.Config, r.Variant, r.Vertices), func() error {
			return checkCount("instructions retired", r.Instructions, want)
		})
	}
}
