package harness

import (
	"context"
	"maps"
	"reflect"
	"strings"
	"sync"
	"testing"

	"graphpim/internal/machine"
	"graphpim/internal/mem/backends"
	"graphpim/internal/memmap"
	"graphpim/internal/trace"
	"graphpim/internal/workloads"
)

// testEnv returns a small environment sized for engine tests; its spill
// files are released when the test ends.
func testEnv(t testing.TB, parallelism int) *Env {
	e := &Env{
		Vertices:     1024,
		Seed:         7,
		Threads:      16,
		ScaledCaches: true,
		SweepSizes:   []int{512, 1024},
		AppVertices:  1024,
		Parallelism:  parallelism,
		Check:        true,
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// resultSnapshots materializes every memoized cell of an Env.
func resultSnapshots(e *Env) map[runKey]machineResultView {
	e.mu.Lock()
	keys := make([]runKey, 0, len(e.runs))
	for k := range e.runs {
		keys = append(keys, k)
	}
	e.mu.Unlock()
	out := make(map[runKey]machineResultView, len(keys))
	for _, k := range keys {
		e.mu.Lock()
		s := e.runs[k]
		e.mu.Unlock()
		r := s.get()
		out[k] = machineResultView{
			Config:       r.Config,
			Cycles:       r.Cycles,
			Instructions: r.Instructions,
			Stats:        r.Stats,
		}
	}
	return out
}

type machineResultView struct {
	Config       string
	Cycles       uint64
	Instructions uint64
	Stats        map[string]uint64
}

// TestParallelDeterminism is the -j 1 vs -j 8 regression gate: the same
// experiment must produce a byte-identical table and identical Result
// snapshots (stats maps and cycle counts) at any worker count —
// parallelism changes who computes, never what.
func TestParallelDeterminism(t *testing.T) {
	ex, err := ByID("fig7-speedup")
	if err != nil {
		t.Fatal(err)
	}

	e1 := testEnv(t, 1)
	t1, err := e1.RunExperiment(context.Background(), ex)
	if err != nil {
		t.Fatal(err)
	}
	e8 := testEnv(t, 8)
	t8, err := e8.RunExperiment(context.Background(), ex)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := t8.String(), t1.String(); got != want {
		t.Fatalf("table differs between -j 1 and -j 8:\n--- j1 ---\n%s\n--- j8 ---\n%s", want, got)
	}
	if got, want := t8.CSV(), t1.CSV(); got != want {
		t.Fatalf("CSV differs between -j 1 and -j 8")
	}

	s1 := resultSnapshots(e1)
	s8 := resultSnapshots(e8)
	if len(s1) == 0 {
		t.Fatal("serial run memoized no cells")
	}
	if len(s1) != len(s8) {
		t.Fatalf("cell sets differ: %d cells at -j 1, %d at -j 8", len(s1), len(s8))
	}
	for k, r1 := range s1 {
		r8, ok := s8[k]
		if !ok {
			t.Fatalf("cell %+v missing at -j 8", k)
		}
		if !reflect.DeepEqual(r1, r8) {
			t.Fatalf("cell %+v differs between -j 1 and -j 8:\nj1: %+v\nj8: %+v", k, r1, r8)
		}
	}
}

// TestRecordingDiscoversCells checks the engine's recording pass: it must
// find the same cell set a serial run computes, without simulating any of
// them.
func TestRecordingDiscoversCells(t *testing.T) {
	ex, err := ByID("fig11-fu-sweep")
	if err != nil {
		t.Fatal(err)
	}
	e := testEnv(t, 1)
	plan, ok := e.record(ex)
	if !ok {
		t.Fatal("recording pass failed")
	}
	// 8 workloads x (1 baseline + 5 FU variants).
	if want := 8 * 6; len(plan) != want {
		t.Fatalf("recorded %d cells, want %d", len(plan), want)
	}
	// Recording must not simulate: every slot still has its compute
	// closure pending.
	for i, c := range plan {
		if c.slot.compute == nil {
			t.Fatalf("plan[%d] was computed during recording", i)
		}
	}
}

// TestObservedExportAndPreloadRoundTrip checks the observability
// contract end to end at the harness level: RunExperimentObserved must
// export one record per cell with the full memo key and counter
// snapshot, and PreloadRecords into a fresh Env must regenerate the
// identical table without simulating anything (no graph or trace is
// ever built).
func TestObservedExportAndPreloadRoundTrip(t *testing.T) {
	ex, err := ByID("ext-dependent-block")
	if err != nil {
		t.Fatal(err)
	}
	e1 := testEnv(t, 4)
	t1, run, recs, err := e1.RunExperimentObserved(context.Background(), ex)
	if err != nil {
		t.Fatal(err)
	}
	if run.ID != ex.ID {
		t.Fatalf("run.ID = %q, want %q", run.ID, ex.ID)
	}
	// 3 dependent-block lengths x 2 configs.
	if len(recs) != 6 {
		t.Fatalf("exported %d records, want 6", len(recs))
	}
	if run.Cells != len(recs) {
		t.Fatalf("run.Cells = %d, records = %d", run.Cells, len(recs))
	}
	if len(run.Phases) == 0 {
		t.Fatal("no phase timings recorded for a parallel run")
	}
	for i, r := range recs {
		if r.Experiment != ex.ID {
			t.Fatalf("record %d tagged %q", i, r.Experiment)
		}
		if r.Cycles == 0 || len(r.Stats) == 0 {
			t.Fatalf("record %d is empty: %+v", i, r)
		}
		if !r.IPC.IsValid() {
			t.Fatalf("record %d has invalid IPC for nonzero cycles", i)
		}
	}

	e2 := testEnv(t, 1)
	e2.PreloadRecords(recs)
	t2, err := e2.RunExperiment(context.Background(), ex)
	if err != nil {
		t.Fatal(err)
	}
	if t2.String() != t1.String() {
		t.Fatalf("preloaded replay differs:\n--- live ---\n%s\n--- replay ---\n%s", t1, t2)
	}
	e2.mu.Lock()
	defer e2.mu.Unlock()
	if len(e2.graphs) != 0 || len(e2.traces) != 0 {
		t.Fatalf("preloaded replay simulated: %d graphs, %d traces built",
			len(e2.graphs), len(e2.traces))
	}
}

// TestRunExperimentSharedEnv checks that experiments sharing one Env reuse
// warmed cells across RunExperiment calls.
func TestRunExperimentSharedEnv(t *testing.T) {
	e := testEnv(t, 4)
	ctx := context.Background()
	fig7, err := ByID("fig7-speedup")
	if err != nil {
		t.Fatal(err)
	}
	fig10, err := ByID("fig10-missrate")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = e.RunExperiment(ctx, fig7)
	e.mu.Lock()
	cellsAfterFig7 := len(e.runs)
	e.mu.Unlock()
	_, _ = e.RunExperiment(ctx, fig10) // baseline runs already warmed by fig7
	e.mu.Lock()
	cellsAfterFig10 := len(e.runs)
	e.mu.Unlock()
	if cellsAfterFig10 != cellsAfterFig7 {
		t.Fatalf("fig10 created %d new cells; expected full reuse of fig7's baselines",
			cellsAfterFig10-cellsAfterFig7)
	}
}

// TestExperimentSetupErrorPropagates: an experiment that needs an
// unregistered workload must surface an error through RunExperiment —
// never a bare panic — so the CLI can exit with a message instead of a
// stack trace. Exercised at both worker counts because the parallel
// engine's recording pass has its own panic recovery.
func TestExperimentSetupErrorPropagates(t *testing.T) {
	ex := Experiment{
		ID: "ext-bogus", Paper: "none", Title: "setup failure probe",
		Run: func(e *Env) *Table {
			mustWorkload("NoSuchWorkload")
			return &Table{}
		},
	}
	for _, workers := range []int{1, 4} {
		tb, err := testEnv(t, workers).RunExperiment(context.Background(), ex)
		if err == nil || !strings.Contains(err.Error(), "NoSuchWorkload") {
			t.Fatalf("workers=%d: err = %v, want unknown-workload error", workers, err)
		}
		if tb != nil {
			t.Fatalf("workers=%d: got a table alongside the error", workers)
		}
	}
}

// countSimulations swaps the runSource seam for one that counts every
// simulation by key, restoring it when the test ends.
func countSimulations(t *testing.T) func() map[simKey]int {
	var mu sync.Mutex
	calls := map[simKey]int{}
	orig := runSource
	t.Cleanup(func() { runSource = orig })
	runSource = func(cfg machine.Config, space *memmap.AddressSpace, src trace.Source) machine.Result {
		mu.Lock()
		calls[simKey{src, space, cfg}]++
		mu.Unlock()
		return orig(cfg, space, src)
	}
	return func() map[simKey]int {
		mu.Lock()
		defer mu.Unlock()
		return maps.Clone(calls)
	}
}

// TestSharedSimulationAcrossLabels: fig11's 16-FU column is the Table IV
// default machine, so after fig7 it must cost no simulation. Every
// distinct (source, space, config) gets a slot and simulates at most
// once, while fig11 still exports all 40 FU cells and each fu16 cell
// carries fig7's GraphPIM result. The FU counts that fig7's 16-FU
// certificates cover simulate not at all (certified sharing).
func TestSharedSimulationAcrossLabels(t *testing.T) {
	calls := countSimulations(t)
	e := testEnv(t, 2)
	e.Check = false
	ctx := context.Background()
	for _, id := range []string{"fig7-speedup", "fig11-fu-sweep"} {
		ex, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		_, _, recs, err := e.RunExperimentObserved(ctx, ex)
		if err != nil {
			t.Fatal(err)
		}
		if id != "fig11-fu-sweep" {
			continue
		}
		fu := 0
		for _, r := range recs {
			if strings.HasPrefix(r.Variant, "fu") {
				fu++
			}
		}
		if want := 5 * len(workloads.EvalSet()); fu != want {
			t.Fatalf("fig11 exported %d FU cells, want %d", fu, want)
		}
	}

	got := calls()
	for k, n := range got {
		if n != 1 {
			t.Fatalf("%s simulated %d times", k.cfg.Name, n)
		}
	}
	e.mu.Lock()
	slots := len(e.sims)
	e.mu.Unlock()
	// fig7: Baseline, U-PEI and GraphPIM per workload; fig11 adds only
	// its 8, 4, 2 and 1 FU machines, of which 14 at this scale reuse a
	// covering fig7 result.
	if want := 7 * len(workloads.EvalSet()); slots != want {
		t.Fatalf("%d slots, want %d distinct machines", slots, want)
	}
	if want := 7*len(workloads.EvalSet()) - 14; len(got) != want {
		t.Fatalf("%d simulations, want %d", len(got), want)
	}
	for _, w := range workloads.EvalSet() {
		info := w.Info()
		key := runKey{info.Name, e.Vertices, KindGraphPIM, info.NeedsFPExtension, "", e.Seed}
		fu16 := key
		fu16.variant = "fu16"
		e.mu.Lock()
		def, shared := e.runs[key], e.runs[fu16]
		e.mu.Unlock()
		if !reflect.DeepEqual(shared.get(), def.get()) {
			t.Fatalf("%s: fu16 result differs from fig7's GraphPIM result", info.Name)
		}
	}
}

// TestCertifiedSharingIsExact is the exactness gate of certified
// sharing. It runs fig7, fig11 and fig13 at quick scale, serially so
// that every earlier cell has finished when the next one looks for a
// covering result, and replays again every machine that reused a family
// member's result instead of simulating: each fresh replay must equal
// the shared result. It pins the simulation count, and checks that a
// machine outside its certificate simulates: CComp's FUs waited at 16,
// so its fu8 machine must replay.
func TestCertifiedSharingIsExact(t *testing.T) {
	calls := countSimulations(t)
	e := testEnv(t, 1)
	e.Check = false
	e.Vertices = 2048
	ctx := context.Background()
	for _, id := range []string{"fig7-speedup", "fig11-fu-sweep", "fig13-linkbw"} {
		ex, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.RunExperiment(ctx, ex); err != nil {
			t.Fatal(err)
		}
	}
	got := calls()
	e.mu.Lock()
	sims := maps.Clone(e.sims)
	e.mu.Unlock()
	reused := 0
	for k, s := range sims {
		if got[k] != 0 {
			continue
		}
		reused++
		if fresh := machine.RunSource(k.cfg, k.space, k.src); !reflect.DeepEqual(fresh, s.res) {
			t.Fatalf("%s with %d FUs at link scale %g reused a result its replay does not give:\nreused: %+v\nreplay: %+v",
				k.cfg.Name, k.cfg.HMC.IntFUsPerVault, k.cfg.HMC.LinkBWScale, s.res, fresh)
		}
	}
	// fig7 simulates 3 machines per workload, fig11 and fig13 add 4
	// each; 34 of those 64 sweep machines are covered at this scale.
	n := len(workloads.EvalSet())
	if len(sims) != 11*n || len(got) != 11*n-34 || reused != 34 {
		t.Fatalf("%d machines, %d simulated, %d reused; want %d, %d, 34", len(sims), len(got), reused, 11*n, 11*n-34)
	}

	w := mustWorkload("CComp")
	tr := e.Trace(w, e.Vertices)
	fu16 := e.adjusted(KindGraphPIM, w, nil)
	fu8 := e.adjusted(KindGraphPIM, w, func(c *machine.Config) { c.HMC.IntFUsPerVault = 8 })
	ran := sims[simKey{tr.stream, tr.fw.Space(), fu16}].res
	if ran.Covers(fu16, fu8) || got[simKey{tr.stream, tr.fw.Space(), fu8}] != 1 {
		t.Fatal("CComp's 16-FU result covers its 8-FU machine, or that machine did not simulate once")
	}
}

// TestSimKeysHash: every backend's default configuration, and the FU,
// cube-chain and vault-interleave variants of the default machine, must
// be usable as simulation keys — a mem.Config holding a slice would
// panic on insert — and an equal machine built twice must land on the
// same key.
func TestSimKeysHash(t *testing.T) {
	configs := func() []machine.Config {
		var out []machine.Config
		for _, kind := range backends.Kinds() {
			cfg := machine.GraphPIM(false)
			cfg.Mem, _ = backends.DefaultConfig(kind)
			out = append(out, cfg)
		}
		for _, adjust := range []func(*machine.Config){
			func(c *machine.Config) { c.HMC.IntFUsPerVault = 8 },
			func(c *machine.Config) { c.HMCCubes = 2 },
			func(c *machine.Config) { c.HMC.VaultInterleaveShift = 2 },
		} {
			cfg := machine.GraphPIM(false)
			adjust(&cfg)
			out = append(out, cfg)
		}
		return out
	}
	keys := map[simKey]bool{}
	first := configs()
	for _, cfgs := range [][]machine.Config{first, configs()} {
		for _, cfg := range cfgs {
			keys[simKey{cfg: cfg}] = true
		}
	}
	if len(keys) != len(first) {
		t.Fatalf("%d distinct keys from %d machines built twice", len(keys), len(first))
	}
}

// TestVariantLabelPinsOneMachine: a variant label names one machine; a
// second RunVariant under the same label whose adjustment builds a
// different machine must panic instead of returning the first one's
// result.
func TestVariantLabelPinsOneMachine(t *testing.T) {
	orig := runSource
	t.Cleanup(func() { runSource = orig })
	runSource = func(machine.Config, *memmap.AddressSpace, trace.Source) machine.Result {
		return machine.Result{}
	}
	w, err := workloads.ByName("BFS")
	if err != nil {
		t.Fatal(err)
	}
	e := testEnv(t, 1)
	e.Vertices = 512
	e.RunVariant(w, KindGraphPIM, "x", func(c *machine.Config) { c.HMC.IntFUsPerVault = 8 })
	e.RunVariant(w, KindGraphPIM, "x", func(c *machine.Config) { c.HMC.IntFUsPerVault = 8 })
	defer func() {
		r := recover()
		if s, ok := r.(string); !ok || !strings.Contains(s, "BFS/GraphPIM/x") {
			t.Fatalf("recovered %v, want a panic naming the label", r)
		}
	}()
	e.RunVariant(w, KindGraphPIM, "x", func(c *machine.Config) { c.HMC.IntFUsPerVault = 4 })
}
