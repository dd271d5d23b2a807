package graphpim

import (
	"reflect"
	"strings"
	"testing"
)

func TestFacadeQuickstart(t *testing.T) {
	g := GenerateLDBC(1024, 7)
	run := NewRun(g, DefaultOptions())
	base := run.Execute(NewBFS(0), ConfigBaseline)
	gpim := run.Execute(NewBFS(0), ConfigGraphPIM)
	if base.Cycles == 0 || gpim.Cycles == 0 {
		t.Fatal("zero-cycle runs")
	}
	if gpim.Speedup(base) <= 1.0 {
		t.Fatalf("GraphPIM speedup %.2f <= 1 on BFS", gpim.Speedup(base))
	}
}

func TestExecuteFullReturnsFunctionalOutput(t *testing.T) {
	g := GenerateLDBC(512, 7)
	run := NewRun(g, DefaultOptions())
	_, out := run.ExecuteFull(NewBFS(0), ConfigGraphPIM)
	if out == nil {
		t.Fatal("no functional output")
	}
}

func TestNewRunValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("17 threads did not panic")
		}
	}()
	NewRun(GenerateLDBC(64, 1), Options{Threads: 17})
}

func TestUnknownConfigPanics(t *testing.T) {
	run := NewRun(GenerateLDBC(64, 1), DefaultOptions())
	defer func() {
		if recover() == nil {
			t.Fatal("unknown config did not panic")
		}
	}()
	run.Execute(NewDC(), Config("bogus"))
}

func TestExperimentRegistryViaFacade(t *testing.T) {
	if len(Experiments()) != 21 {
		t.Fatalf("Experiments() = %d, want 21", len(Experiments()))
	}
	tb, err := RunExperiment("table5-flits", QuickEnv())
	if err != nil || len(tb.Rows) == 0 {
		t.Fatalf("RunExperiment failed: %v", err)
	}
	if _, err := RunExperiment("nope", nil); err == nil {
		t.Fatal("unknown experiment did not error")
	}
}

// TestGNNFamilyExecutionIdentity: every GNN/SpMV-family workload must
// produce identical timing results AND identical functional output
// across the materialized/streamed trace pipelines — the same
// byte-identity contract the Table III suite holds (DESIGN.md §13),
// extended to the new family.
func TestGNNFamilyExecutionIdentity(t *testing.T) {
	g := GenerateLDBC(512, 7)
	for _, mk := range []func() Workload{
		func() Workload { return NewSpMV(2) },
		func() Workload { return NewGNNMean(4) },
		func() Workload { return NewGNNMax(4) },
		func() Workload { return NewTCFeat(4) },
	} {
		name := mk().Info().Name
		refOpts := DefaultOptions()
		refRes, refOut := NewRun(g, refOpts).ExecuteFull(mk(), ConfigGraphPIM)
		opts := refOpts
		opts.Stream = true
		res, out := NewRun(g, opts).ExecuteFull(mk(), ConfigGraphPIM)
		if !reflect.DeepEqual(res, refRes) {
			t.Fatalf("%s: streamed timing result diverges from the materialized run", name)
		}
		if !reflect.DeepEqual(out, refOut) {
			t.Fatalf("%s: streamed functional output diverges from the materialized run", name)
		}
	}
}

// TestAutoPolicyViaFacade: Options.Policy="auto" must resolve to one of
// the static placements, record the choice in Result.Config, and explain
// it through the tune.* counters.
func TestAutoPolicyViaFacade(t *testing.T) {
	g := GenerateLDBC(512, 7)
	opts := DefaultOptions()
	opts.Policy = "auto"
	res := NewRun(g, opts).Execute(NewGNNMean(4), ConfigGraphPIM)
	if !strings.HasPrefix(res.Config, "Auto(") {
		t.Fatalf("auto run config = %q, want Auto(...)", res.Config)
	}
	if _, ok := res.Stats["tune.placement"]; !ok {
		t.Fatal("auto run did not record tune.* counters")
	}
	// The baseline argument is exempt from policy remapping: it stays
	// the denominator.
	base := NewRun(g, opts).Execute(NewGNNMean(4), ConfigBaseline)
	if base.Config != "Baseline" {
		t.Fatalf("baseline remapped under auto policy: %q", base.Config)
	}
	bad := DefaultOptions()
	bad.Policy = "bogus"
	if err := bad.Validate(); err == nil {
		t.Fatal("bogus policy validated")
	}
}

func TestWorkloadLookupViaFacade(t *testing.T) {
	w, err := WorkloadByName("PRank")
	if err != nil {
		t.Fatal(err)
	}
	if !w.Info().NeedsFPExtension {
		t.Fatal("PRank should require the FP extension")
	}
	if len(AllWorkloads()) != 13 || len(EvalWorkloads()) != 8 {
		t.Fatal("suite sizes wrong")
	}
}
