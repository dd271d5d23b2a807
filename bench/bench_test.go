package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"graphpim/internal/gframe"
	"graphpim/internal/graph"
	"graphpim/internal/harness"
	"graphpim/internal/trace"
	"graphpim/internal/workloads"
)

// TestMain lets the test binary serve as the benchmark's child process,
// so the smoke tests exercise the real re-execution path.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(runChild(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		// statistics.quantiles(xs, n=4) with xs as given.
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{7, 1, 5}, 1, 5, 7},
		{[]float64{5}, 5, 5, 5},
	} {
		q1, med, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(med-tc.med) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, med, q3, tc.q1, tc.med, tc.q3)
		}
	}
}

func TestLapScalesToReferenceSpeed(t *testing.T) {
	c := newCell("test", smokeScale, 7)
	c.segStart = time.Now()
	c.lap()
	if c.res.WallS != 0 {
		t.Errorf("a lap right after the segment began ended it: %v s", c.res.WallS)
	}
	// A segment of one second between a probe at reference speed and the
	// one endSegment takes: its reference time follows from the probes'
	// mean.
	c.lastProbe = refNominal
	c.segStart = time.Now().Add(-time.Second)
	c.endSegment()
	want := c.res.WallS * 2 * refNominal / (refNominal + c.lastProbe)
	if c.res.WallS < 1 || c.lastProbe <= 0 || math.Abs(c.res.RefWallS-want) > 1e-9 {
		t.Errorf("%v host s, probe %v: %v reference s, want %v", c.res.WallS, c.lastProbe, c.res.RefWallS, want)
	}
}

// series returns n values around base with a fixed relative jitter.
func series(base, jitter float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = base * (1 + jitter*float64(i%5-2)/2)
	}
	return xs
}

func TestJudge(t *testing.T) {
	parent := series(10, 0.01, 10)
	for _, tc := range []struct {
		name   string
		change []float64
		better string
		want   string
	}{
		{"identical", parent, "lower", verdictSame},
		{"within bound", series(10.5, 0.01, 10), "lower", verdictSame},
		{"regression", series(12, 0.01, 10), "lower", verdictWorse},
		{"regression of a higher-is-better metric", series(8, 0.01, 10), "higher", verdictWorse},
		{"gain", series(9, 0.01, 10), "lower", verdictBetter},
		{"gain with too few pairs", series(9, 0.01, 9), "lower", verdictSame},
		{"spread wider than the bound", series(10, 0.4, 10), "lower", verdictUnresolved},
		{"wide spread, some runs worse", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 12}, "lower", verdictUnresolved},
	} {
		if got := judge(parent, tc.change, tc.better, 0.1); got != tc.want {
			t.Errorf("%s: judge = %s, want %s", tc.name, got, tc.want)
		}
	}
	wide := []float64{100, 120, 140, 160, 180, 110, 130, 150, 170, 190}
	if got := judge(wide, series(50, 0.01, 10), "lower", 0.1); got != verdictBetter {
		t.Errorf("every change run below every parent run: judge = %s, want %s", got, verdictBetter)
	}
}

func TestPairWins(t *testing.T) {
	parent := []float64{10, 10, 10, 10}
	change := []float64{9, 10, 11, 8, 1}
	wins, pairs := pairWins(parent, change, "lower")
	if wins != 2 || pairs != 4 {
		t.Errorf("pairWins = %d of %d, want 2 of 4 (a tie counts for neither)", wins, pairs)
	}
	// Nine of ten pairs won, with a gap past the parent's IQR: a gain.
	p := series(10, 0.01, 10)
	c := series(9, 0.01, 10)
	c[3] = 11
	if got := judge(p, c, "lower", 0.2); got != verdictBetter {
		t.Errorf("9/10 pairs won: judge = %s, want %s", got, verdictBetter)
	}
	c[4] = 11
	if got := judge(p, c, "lower", 0.2); got != verdictSame {
		t.Errorf("8/10 pairs won: judge = %s, want %s", got, verdictSame)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "timed", Start: 0, End: 100, Parent: -1},
		{Name: "machine.RunTrace", Start: 10, End: 50, Parent: 0},
		{Name: "machine.RunTrace", Start: 50, End: 90, Parent: 0},
		{Name: "inner", Start: 20, End: 30, Parent: 1},
	}
	got := selfTimes(spans)
	want := map[string]float64{"timed": 20e-9, "machine.RunTrace": 70e-9, "inner": 10e-9}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-15 {
			t.Errorf("self time of %s = %v, want %v", k, got[k], v)
		}
	}
}

// smallBFS builds a 512-vertex BFS trace and its encoded v2 form.
func smallBFS(t *testing.T) (*gframe.Framework, *trace.Trace, workloads.Result, []byte) {
	t.Helper()
	g := graph.LDBC(512, 7)
	fw := gframe.New(g, 16, gframe.DefaultCostModel())
	out := workloads.NewBFS(0).Run(fw)
	tr := fw.Trace()
	var buf bytes.Buffer
	if err := trace.WriteV2(&buf, tr, fw.Space()); err != nil {
		t.Fatal(err)
	}
	return fw, tr, out, buf.Bytes()
}

func TestRefBFSMatchesWorkload(t *testing.T) {
	_, _, out, _ := smallBFS(t)
	want, err := refBFS(graph.LDBCStream(512, 7), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkDepths(out.Output.(workloads.BFSOutput).Depth, want); err != nil {
		t.Fatal(err)
	}
}

func TestRefBFSRejectsOutOfRangeEdge(t *testing.T) {
	s := graph.SliceStream(2, []graph.Edge{{Src: 0, Dst: 5, Weight: 1}})
	if _, err := refBFS(s, 0); err == nil {
		t.Fatal("refBFS accepted an edge outside the vertex range")
	}
}

// failures runs fn against a fresh cell and returns its failure count.
func failures(fn func(c *cell)) int {
	c := newCell("test", smokeScale, 7)
	fn(c)
	return c.res.Failed
}

func TestChecksFireOnCorruptedInputs(t *testing.T) {
	_, tr, out, data := smallBFS(t)
	depth := slices.Clone(out.Output.(workloads.BFSOutput).Depth)
	want, err := refBFS(graph.LDBCStream(512, 7), 0)
	if err != nil {
		t.Fatal(err)
	}
	depth[len(depth)-1]++
	atomics := tr.CountKind(trace.KindAtomic)
	exps := harness.All()[:2]

	for _, tc := range []struct {
		name string
		fn   func(c *cell)
	}{
		{"wrong BFS depth", func(c *cell) {
			c.check("bfs depths", func() error { return checkDepths(depth, want) })
		}},
		{"instruction count off by one", func(c *cell) {
			c.check("instructions", func() error {
				return checkCount("instructions retired", tr.TotalInstructions()-1, tr.TotalInstructions())
			})
		}},
		{"an atomic neither offloaded nor executed on the host", func(c *cell) {
			stats := map[string]uint64{"mem.pim_atomics": atomics - 1}
			c.check("atomics", func() error { return checkAtomicSplit(stats, atomics) })
		}},
		{"replayed table differs", func(c *cell) {
			checkReplayedTables(c, exps, []string{"a", "b"}, []string{"a", "c"})
		}},
		{"a table missing from the replay", func(c *cell) {
			checkReplayedTables(c, exps, []string{"a", "b"}, []string{"a"})
		}},
		{"truncated trace", func(c *cell) {
			c.guard("trace codec", func() error {
				_, _, err := decodeAll(c, bytes.NewReader(data[:len(data)/2]))
				return err
			})
		}},
		{"trace corrupted after it was opened", func(c *cell) {
			corrupt := slices.Clone(data)
			c.guard("trace codec", func() error {
				st, err := trace.OpenStream(bytes.NewReader(corrupt))
				if err != nil {
					return err
				}
				for i := 16; i < len(corrupt)/2; i++ {
					corrupt[i] = 0xff
				}
				cur := st.Cursor(0)
				for w := cur.NextWindow(); w != nil; w = cur.NextWindow() {
				}
				return nil
			})
		}},
	} {
		if n := failures(tc.fn); n != 1 {
			t.Errorf("%s: %d failed checks, want 1", tc.name, n)
		}
	}

	// The untouched inputs pass the same checks.
	if n := failures(func(c *cell) {
		c.check("bfs depths", func() error { return checkDepths(out.Output.(workloads.BFSOutput).Depth, want) })
		c.guard("trace codec", func() error {
			_, n, err := decodeAll(c, bytes.NewReader(data))
			if err == nil {
				err = checkCount("records", uint64(n), uint64(len(slices.Concat(tr.Threads...))))
			}
			return err
		})
	}); n != 0 {
		t.Errorf("clean inputs: %d failed checks", n)
	}
}

func TestModelCountsMustRepeat(t *testing.T) {
	wr := &workloadResult{}
	absorb(wr, childResult{Attempted: 3, Model: map[string]float64{"model.x.cycles": 10}}, true)
	absorb(wr, childResult{Attempted: 3, Model: map[string]float64{"model.x.cycles": 10}}, true)
	if wr.Failed != 0 || wr.Attempted != 6 {
		t.Fatalf("identical model counts: %d failed of %d", wr.Failed, wr.Attempted)
	}
	absorb(wr, childResult{Attempted: 3, Model: map[string]float64{"model.x.cycles": 11}}, true)
	if wr.Failed != 1 {
		t.Fatalf("changed model count: %d failed, want 1", wr.Failed)
	}
	absorb(wr, childResult{Attempted: 3}, false)
	if wr.Attempted != 9 {
		t.Fatalf("a clean warm-up changed the attempted count to %d", wr.Attempted)
	}
}

func loadBenchmarkJSON(t *testing.T) *benchmarkFile {
	t.Helper()
	b, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONMatchesTheBenchmark(t *testing.T) {
	b := loadBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, suiteNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, suiteNames())
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, benchmark reports %d", len(b.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, maxBound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, benchmark reports %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
}

// runBench runs the benchmark's command line and returns its output and
// the parsed result line.
func runBench(t *testing.T, args ...string) (string, map[string]any) {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("bench %v exited %d: %s", args, code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	if res["correct"] != true || res["failed"].(float64) != 0 {
		t.Fatalf("bench %v reported failures:\n%s", args, out.String())
	}
	return out.String(), res
}

// metricLine returns the printed value of the first line of out that
// names metric with its unit, and whether there is one.
func metricLine(out, metric, unit string) (string, bool) {
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) >= 3 && f[0] == metric && f[2] == unit {
			return f[1], true
		}
	}
	return "", false
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at 512 vertices")
	}
	b := loadBenchmarkJSON(t)
	spans := filepath.Join(t.TempDir(), "spans.json")

	out, res := runBench(t, "-smoke")
	metrics := res["metrics"].(map[string]any)
	for _, w := range b.Workloads {
		section := out[strings.Index(out, w.Name+":"):]
		for _, m := range b.EndToEnd {
			if _, ok := metricLine(section, m.Name, m.Unit); !ok {
				t.Errorf("%s: %s not printed with unit %s", w.Name, m.Name, m.Unit)
			}
			v, ok := metrics[m.Name+"."+w.Name].(map[string]any)
			if !ok || v["unit"] != m.Unit || v["value"].(float64) <= 0 {
				t.Errorf("%s: result line has %s = %v", w.Name, m.Name, v)
			}
		}
		if v, _ := metricLine(section, "failed_frac", "ratio"); v != "0.0000" {
			t.Errorf("%s: failed_frac printed as %q, want 0", w.Name, v)
		}
	}

	out, res = runBench(t, "-smoke", "-trace", "1", "-spans", spans)
	metrics = res["metrics"].(map[string]any)
	for _, m := range b.PerLayer {
		if _, ok := metricLine(out, m.Name, m.Unit); !ok {
			t.Errorf("%s not printed with unit %s", m.Name, m.Unit)
		}
		if v, ok := metrics[m.Name].(map[string]any); !ok || v["unit"] != m.Unit {
			t.Errorf("result line has %s = %v", m.Name, v)
		}
	}
	var recorded []workloadSpans
	data, err := os.ReadFile(spans)
	if err == nil {
		err = json.Unmarshal(data, &recorded)
	}
	if err != nil || len(recorded) != len(suite)+1 {
		t.Errorf("spans file: %d traced runs, %v", len(recorded), err)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	set := func(wall []float64, cycles float64) *runSet {
		return &runSet{Workloads: map[string]*workloadResult{"replay-bfs": {
			Runs: len(wall), Attempted: 3 * len(wall),
			Metrics: map[string]summary{"wall_s": summarize("s", "lower", wall)},
			Model:   map[string]float64{"model.replay-bfs.baseline.cycles": cycles},
		}}}
	}
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := appendLedger(a, set(series(2, 0.01, 10), 100)); err != nil {
		t.Fatal(err)
	}
	if err := appendLedger(b, set(series(2, 0.01, 10), 100)); err != nil {
		t.Fatal(err)
	}
	if err := appendLedger(b, set(series(3, 0.01, 10), 101)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args   []string
		status int
		want   []string
	}{
		{[]string{a, b + "@0"}, 0, []string{"replay-bfs      wall_s", "same", "simulated results identical"}},
		{[]string{a, b}, 1, []string{"worse", "simulated result changed: replay-bfs model.replay-bfs.baseline.cycles: 100 vs 101"}},
	} {
		var out, errb bytes.Buffer
		if got := compareMain(tc.args, &out, &errb); got != tc.status {
			t.Errorf("compare %v exited %d, want %d: %s", tc.args, got, tc.status, errb.String())
		}
		for _, w := range tc.want {
			if !strings.Contains(out.String(), w) {
				t.Errorf("compare %v output lacks %q:\n%s", tc.args, w, out.String())
			}
		}
	}
	var out, errb bytes.Buffer
	if got := compareMain([]string{a, b + "@7"}, &out, &errb); got != 2 {
		t.Errorf("missing entry: exit %d, want 2", got)
	}
}
