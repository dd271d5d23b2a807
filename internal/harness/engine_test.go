package harness

import (
	"context"
	"reflect"
	"strings"
	"testing"
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
