package obs

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

func TestCountersStableOrder(t *testing.T) {
	c := CountersFromMap(map[string]uint64{
		"cpu.cycles": 10, "cache.l3.miss": 3, "hmc.atomics": 7, "a": 1,
	})
	for i := 1; i < len(c); i++ {
		if c[i-1].Name >= c[i].Name {
			t.Fatalf("counters not sorted: %q before %q", c[i-1].Name, c[i].Name)
		}
	}
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"a":1,"cache.l3.miss":3,"cpu.cycles":10,"hmc.atomics":7}`
	if string(data) != want {
		t.Fatalf("marshal = %s, want %s", data, want)
	}
	var back Counters
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Get("cpu.cycles") != 10 || back.Get("missing") != 0 {
		t.Fatalf("Get after round trip: %+v", back)
	}
}

func TestFloatNullJSON(t *testing.T) {
	data, err := json.Marshal(struct {
		A Float `json:"a"`
		B Float `json:"b"`
	}{A: Float(math.NaN()), B: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(data), `{"a":null,"b":1.5}`; got != want {
		t.Fatalf("marshal = %s, want %s", got, want)
	}
	var back struct {
		A Float `json:"a"`
		B Float `json:"b"`
	}
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(float64(back.A)) || float64(back.B) != 1.5 {
		t.Fatalf("unmarshal: %+v", back)
	}
	if Float(math.Inf(1)).IsValid() || !Float(0).IsValid() {
		t.Fatal("IsValid wrong for Inf/0")
	}
}

func TestRecordJSONRoundTrip(t *testing.T) {
	r := Record{
		Experiment: "fig7-speedup", Workload: "BFS",
		Config: "GraphPIM", ConfigName: "GraphPIM", Variant: "fu8",
		Vertices: 1024, Seed: 7,
		Cycles: 1000, Instructions: 4000, IPC: 4, WallNs: 123,
		Stats: CountersFromMap(map[string]uint64{"machine.cycles": 1000}),
	}
	data, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	var back Record
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Workload != "BFS" || back.Stats.Get("machine.cycles") != 1000 ||
		back.Variant != "fu8" || back.Seed != 7 {
		t.Fatalf("round trip lost fields: %+v", back)
	}
}

func TestRunWriterAndLoad(t *testing.T) {
	dir := t.TempDir()
	env := EnvInfo{Vertices: 512, Seed: 7, Threads: 16,
		SweepSizes: []int{512}, AppVertices: 512, Parallelism: 2}
	w, err := NewRunWriter(dir, env, map[string]string{"format": "text"})
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Experiment: "exp-a", Workload: "BFS", Config: "Baseline", ConfigName: "Baseline",
			Vertices: 512, Seed: 7, Cycles: 10, Instructions: 20, IPC: 2,
			Stats: CountersFromMap(map[string]uint64{"x": 1})},
		{Experiment: "exp-a", Workload: "BFS", Config: "GraphPIM", ConfigName: "GraphPIM",
			Vertices: 512, Seed: 7, Cycles: 5, Instructions: 20, IPC: 4,
			Stats: CountersFromMap(map[string]uint64{"x": 2})},
	}
	run := ExperimentRun{ID: "exp-a", Paper: "Fig. 0", Title: "test",
		Phases: []PhaseTiming{{Phase: PhaseReplay, WallNs: 42}}, WallNs: 99}
	if err := w.WriteExperiment(run, recs); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(3 * time.Millisecond); err != nil {
		t.Fatal(err)
	}

	m, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.Tool != Tool || m.Format != FormatVersion || m.CellCount != 2 ||
		m.Env.Vertices != 512 || len(m.Experiments) != 1 {
		t.Fatalf("manifest: %+v", m)
	}
	if m.Experiments[0].File != "exp-a.jsonl" || m.Experiments[0].Cells != 2 {
		t.Fatalf("experiment entry: %+v", m.Experiments[0])
	}
	back, err := LoadRecords(dir, m.Experiments[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[1].Cycles != 5 || back[0].Stats.Get("x") != 1 {
		t.Fatalf("records: %+v", back)
	}
}

func TestLoadManifestErrors(t *testing.T) {
	if _, err := LoadManifest(t.TempDir()); err == nil {
		t.Fatal("missing manifest should error")
	}
}

func TestTextReporterProgress(t *testing.T) {
	var b strings.Builder
	r := NewTextReporter(&b)
	r.PlanReady("fig7", 2)
	r.CellFinish("fig7", "BFS/Baseline", time.Millisecond)
	r.CellFinish("fig7", "BFS/GraphPIM", time.Millisecond)
	r.ExperimentFinish("fig7", 2, 10*time.Millisecond)
	out := b.String()
	for _, want := range []string{"fig7: 1/2 cells", "fig7: 2/2 cells", "done in 10ms (2 cells)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("progress output missing %q:\n%q", want, out)
		}
	}
}
