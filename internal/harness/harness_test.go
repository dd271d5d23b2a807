package harness

import (
	"os"
	"strconv"
	"strings"
	"testing"

	"graphpim/internal/workloads"
)

// checkedQuickEnv is the one Env the experiment-level tests share: a
// cell one test simulated is a memo hit for the next (every cell of
// ext-ddr-host, fig10 and fig16 is among the backend shootout's). Tests
// that count memo entries or compare environments build their own.
var checkedQuickEnv = newCheckedQuickEnv()

// newCheckedQuickEnv is QuickEnv with the sanitizer on: every
// harness-level simulation in the test suite runs fully audited.
func newCheckedQuickEnv() *Env {
	e := QuickEnv()
	e.Check = true
	return e
}

// TestMain releases the shared Env's spill files after the suite.
func TestMain(m *testing.M) {
	code := m.Run()
	checkedQuickEnv.Close()
	os.Exit(code)
}

func TestAllExperimentsRegistered(t *testing.T) {
	exps := All()
	if len(exps) != 21 {
		t.Fatalf("registry has %d experiments, want 21 (every paper table and figure)", len(exps))
	}
	seen := map[string]bool{}
	for _, ex := range exps {
		if ex.ID == "" || ex.Paper == "" || ex.Title == "" || ex.Run == nil {
			t.Fatalf("experiment %+v incomplete", ex.ID)
		}
		if seen[ex.ID] {
			t.Fatalf("duplicate experiment id %s", ex.ID)
		}
		seen[ex.ID] = true
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("fig7-speedup"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown experiment did not error")
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{ID: "x", Title: "t", Headers: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	tb.Notes = append(tb.Notes, "a note")
	s := tb.String()
	for _, want := range []string{"== x: t ==", "a", "bb", "note: a note"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, s)
		}
	}
}

// The static experiments (no simulation) must produce full tables.
func TestStaticExperiments(t *testing.T) {
	e := checkedQuickEnv
	for _, id := range []string{"table1-hmc-atomics", "table2-offload-targets",
		"table3-applicability", "table4-config", "table5-flits", "table6-datasets",
		"table7-appconfig"} {
		ex, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		tb := ex.Run(e)
		if len(tb.Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
	}
}

func TestTable1HasAllCommands(t *testing.T) {
	ex, _ := ByID("table1-hmc-atomics")
	tb := ex.Run(checkedQuickEnv)
	if len(tb.Rows) != 20 {
		t.Fatalf("Table I rows = %d, want 20 (18 HMC 2.0 + 2 extension)", len(tb.Rows))
	}
}

func TestTable3CoversSuite(t *testing.T) {
	ex, _ := ByID("table3-applicability")
	tb := ex.Run(checkedQuickEnv)
	if len(tb.Rows) != len(workloads.All()) {
		t.Fatalf("Table III rows = %d, want %d", len(tb.Rows), len(workloads.All()))
	}
}

// Shared-run caching: two experiments touching the same runs must reuse
// the memoized results.
func TestRunMemoization(t *testing.T) {
	e := newCheckedQuickEnv()
	t.Cleanup(func() { e.Close() })
	w, _ := workloads.ByName("DC")
	r1 := e.Run(w, KindBaseline)
	r2 := e.Run(w, KindBaseline)
	if r1.Cycles != r2.Cycles {
		t.Fatal("memoized run differs")
	}
	if len(e.runs) != 1 {
		t.Fatalf("run cache holds %d entries, want 1", len(e.runs))
	}
}

// End-to-end check of the headline experiment at quick scale: orderings
// the paper reports must hold.
func TestFig7OrderingsAtQuickScale(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	e := checkedQuickEnv
	type speeds struct{ upei, gpim float64 }
	got := map[string]speeds{}
	for _, name := range []string{"BFS", "DC", "kCore", "TC"} {
		w, _ := workloads.ByName(name)
		base := e.Run(w, KindBaseline)
		got[name] = speeds{
			upei: e.Run(w, KindUPEI).Speedup(base),
			gpim: e.Run(w, KindGraphPIM).Speedup(base),
		}
	}
	// Atomic-heavy workloads gain substantially.
	for _, name := range []string{"BFS", "DC"} {
		if got[name].gpim < 1.3 {
			t.Errorf("%s GraphPIM speedup %.2f, want > 1.3", name, got[name].gpim)
		}
	}
	// TC gains almost nothing.
	if got["TC"].gpim > 1.15 || got["TC"].gpim < 0.9 {
		t.Errorf("TC GraphPIM speedup %.2f, want ~1.0", got["TC"].gpim)
	}
	// kCore gains little.
	if got["kCore"].gpim > 1.6 {
		t.Errorf("kCore GraphPIM speedup %.2f, want small", got["kCore"].gpim)
	}
	// GraphPIM at or above U-PEI for the atomic-heavy ones.
	for _, name := range []string{"BFS", "DC"} {
		if got[name].gpim < got[name].upei*0.98 {
			t.Errorf("%s: GraphPIM %.2f below U-PEI %.2f", name, got[name].gpim, got[name].upei)
		}
	}
}

func TestFig10MissRatesAtQuickScale(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	e := checkedQuickEnv
	ex, _ := ByID("fig10-missrate")
	tb := ex.Run(e)
	if len(tb.Rows) != len(workloads.EvalSet()) {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// BFS candidates should be mostly misses even at quick scale.
	for _, row := range tb.Rows {
		if row[0] == "BFS" {
			if !strings.HasSuffix(row[2], "%") {
				t.Fatalf("malformed rate %q", row[2])
			}
		}
	}
}

func TestFig16ModelWithinTolerance(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	e := checkedQuickEnv
	ex, _ := ByID("fig16-model-validation")
	tb := ex.Run(e)
	last := tb.Rows[len(tb.Rows)-1]
	if last[0] != "mean error" {
		t.Fatalf("last row %v", last)
	}
}

func TestFig17RunsBothApps(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	e := checkedQuickEnv
	ex, _ := ByID("fig17-realworld")
	tb := ex.Run(e)
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d, want FD and RS", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if !strings.HasSuffix(row[1], "x") {
			t.Fatalf("malformed speedup %q", row[1])
		}
	}
}

func TestExtrasRegistered(t *testing.T) {
	extras := Extras()
	if len(extras) != 9 {
		t.Fatalf("extras = %d, want 9", len(extras))
	}
	for _, ex := range extras {
		if ex.ID == "" || ex.Run == nil {
			t.Fatalf("extra %q incomplete", ex.ID)
		}
		if _, err := ByID(ex.ID); err != nil {
			t.Fatalf("extra %q not resolvable via ByID", ex.ID)
		}
	}
}

// TestExtDDRHostDegradesGracefully runs the backend-swap experiment and
// pins its structural invariant: GraphPIM on the PIM-less DDR backend is
// exactly the DDR baseline (1.00x), for every workload.
func TestExtDDRHostDegradesGracefully(t *testing.T) {
	ex, err := ByID("ext-ddr-host")
	if err != nil {
		t.Fatal(err)
	}
	tb := ex.Run(checkedQuickEnv)
	if len(tb.Rows) != len(workloads.EvalSet()) {
		t.Fatalf("rows = %d, want %d", len(tb.Rows), len(workloads.EvalSet()))
	}
	for _, row := range tb.Rows {
		if got := row[len(row)-1]; got != "1.00x" {
			t.Fatalf("%s: GraphPIM-on-DDR speedup over DDR baseline = %s, want 1.00x", row[0], got)
		}
	}
}

// TestExtBackendShootoutStructure runs the four-substrate shootout at
// quick scale and pins its structural invariants: one row per
// evaluation workload, a well-formed speedup in every backend column,
// and exactly 1.00x in the ddr column (wholesale degradation).
func TestExtBackendShootoutStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	ex, err := ByID("ext-backend-shootout")
	if err != nil {
		t.Fatal(err)
	}
	tb := ex.Run(checkedQuickEnv)
	if len(tb.Rows) != len(workloads.EvalSet())+1 {
		t.Fatalf("rows = %d, want %d workloads + geomean", len(tb.Rows), len(workloads.EvalSet()))
	}
	ddrCol := -1
	for i, h := range tb.Headers {
		if h == "ddr" {
			ddrCol = i
		}
	}
	if ddrCol < 0 {
		t.Fatalf("no ddr column in %v", tb.Headers)
	}
	for _, row := range tb.Rows {
		for col, cell := range row[1:] {
			if !strings.HasSuffix(cell, "x") {
				t.Fatalf("%s %s: malformed speedup %q", row[0], tb.Headers[col+1], cell)
			}
		}
		if row[ddrCol] != "1.00x" {
			t.Fatalf("%s: ddr column %s, want 1.00x (no PIM units)", row[0], row[ddrCol])
		}
	}
	// The geomean row carries the capability ordering: hmc above the
	// PIM-capable newcomers, everything PIM-capable above ddr's 1.00x.
	geo := tb.Rows[len(tb.Rows)-1]
	if geo[0] != "geomean" {
		t.Fatalf("last row %v, want the geomean summary", geo)
	}
	val := func(col int) float64 {
		f, err := strconv.ParseFloat(strings.TrimSuffix(geo[col], "x"), 64)
		if err != nil {
			t.Fatalf("geomean %s: %v", tb.Headers[col], err)
		}
		return f
	}
	hmc, lpddr, vault := val(1), val(3), val(4)
	if !(hmc > lpddr && hmc > vault && lpddr > 1.0 && vault > 1.0) {
		t.Fatalf("capability ordering broken: hmc %.2f, lpddr %.2f, vault %.2f", hmc, lpddr, vault)
	}
}

func TestTableCSV(t *testing.T) {
	tb := &Table{Headers: []string{"a", "b"}}
	tb.AddRow("1", "x,y")
	tb.AddRow("2", `has "quotes"`)
	csv := tb.CSV()
	want := "a,b\n1,\"x,y\"\n2,\"has \"\"quotes\"\"\"\n"
	if csv != want {
		t.Fatalf("CSV = %q, want %q", csv, want)
	}
}
