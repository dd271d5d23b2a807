package graphpim

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"sort"
	"strings"
	"testing"

	"graphpim/internal/gframe"
	"graphpim/internal/harness"
	"graphpim/internal/machine"
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

// TestGNNFamilyExecutionIdentity: every GNN/SpMV-family workload run
// through the facade (its trace spilled as a v2 chunk log) must produce
// the timing result and functional output of the materialized oracle —
// a gframe.New trace replayed by machine.RunTrace under the machine the
// harness resolves — the byte-identity contract the Table III suite
// holds (DESIGN.md §13), extended to the new family.
func TestGNNFamilyExecutionIdentity(t *testing.T) {
	g := GenerateLDBC(512, 7)
	opts := DefaultOptions()
	env := harness.DefaultEnv()
	for _, mk := range []func() Workload{
		func() Workload { return NewSpMV(2) },
		func() Workload { return NewGNNMean(4) },
		func() Workload { return NewGNNMax(4) },
		func() Workload { return NewTCFeat(4) },
	} {
		w := mk()
		name := w.Info().Name
		fw := gframe.New(g, opts.Threads, gframe.DefaultCostModel())
		refOut := w.Run(fw).Output
		refRes := machine.RunTrace(env.Config(harness.KindGraphPIM, w), fw.Space(), fw.Trace())
		res, out := NewRun(g, opts).ExecuteFull(mk(), ConfigGraphPIM)
		if !reflect.DeepEqual(res, refRes) {
			t.Fatalf("%s: facade timing result diverges from the materialized oracle", name)
		}
		if !reflect.DeepEqual(out, refOut) {
			t.Fatalf("%s: facade functional output diverges from the materialized oracle", name)
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

// resultHash hashes everything a facade Result reports: the config
// name, cycles, retired instructions and every stats counter in key
// order.
func resultHash(res Result) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d", res.Config, res.Cycles, res.Instructions)
	keys := make([]string, 0, len(res.Stats))
	for k := range res.Stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "|%s=%d", k, res.Stats[k])
	}
	return h.Sum64()
}

// TestRunGoldenResults pins the facade's simulated numbers: every
// (workload, config, placement policy, memory substrate) cell over a
// fixed graph must hash to the value recorded before the facade was
// routed through the harness. SpMV covers the FP-extension naming
// path.
func TestRunGoldenResults(t *testing.T) {
	golden := map[string]uint64{
		"BFS/baseline/policy=/hmc":         0x056bbd36d0b000cd,
		"BFS/upei/policy=/hmc":             0x617bbfba2d01f66a,
		"BFS/graphpim/policy=/hmc":         0x1f81aa9cf30e5eff,
		"BFS/baseline/policy=/ddr":         0x7ac4a91d7727a226,
		"BFS/upei/policy=/ddr":             0x064e81b5713d3bdd,
		"BFS/graphpim/policy=/ddr":         0x8402c6444c43febd,
		"BFS/baseline/policy=/vault":       0xe75a41e49cbe7b5c,
		"BFS/upei/policy=/vault":           0xd4e8f5154cf76bd0,
		"BFS/graphpim/policy=/vault":       0xc1bf033fcb021c5a,
		"BFS/baseline/policy=auto/hmc":     0x056bbd36d0b000cd,
		"BFS/upei/policy=auto/hmc":         0xc23c910609dde7fc,
		"BFS/graphpim/policy=auto/hmc":     0xc23c910609dde7fc,
		"BFS/baseline/policy=auto/ddr":     0x7ac4a91d7727a226,
		"BFS/upei/policy=auto/ddr":         0x09bc3163e6c0d1ae,
		"BFS/graphpim/policy=auto/ddr":     0x09bc3163e6c0d1ae,
		"BFS/baseline/policy=auto/vault":   0xe75a41e49cbe7b5c,
		"BFS/upei/policy=auto/vault":       0xf5ff0d29bfb2d334,
		"BFS/graphpim/policy=auto/vault":   0xf5ff0d29bfb2d334,
		"PRank/baseline/policy=/hmc":       0x82ead60d3b58acd9,
		"PRank/upei/policy=/hmc":           0x41bbe94f32ebd9f2,
		"PRank/graphpim/policy=/hmc":       0x801b2bae7670cfd7,
		"PRank/baseline/policy=/ddr":       0x030ed67236c0719e,
		"PRank/upei/policy=/ddr":           0xf3fa77559e01edca,
		"PRank/graphpim/policy=/ddr":       0xfaa7c312a264002a,
		"PRank/baseline/policy=/vault":     0xffd7bb68a34f5fdd,
		"PRank/upei/policy=/vault":         0x9c1c7cba7d7b6ca1,
		"PRank/graphpim/policy=/vault":     0x2496ad561cdcc5a6,
		"PRank/baseline/policy=auto/hmc":   0x82ead60d3b58acd9,
		"PRank/upei/policy=auto/hmc":       0x808200de9419d78f,
		"PRank/graphpim/policy=auto/hmc":   0x808200de9419d78f,
		"PRank/baseline/policy=auto/ddr":   0x030ed67236c0719e,
		"PRank/upei/policy=auto/ddr":       0x82eef9f909ef0cd9,
		"PRank/graphpim/policy=auto/ddr":   0x82eef9f909ef0cd9,
		"PRank/baseline/policy=auto/vault": 0xffd7bb68a34f5fdd,
		"PRank/upei/policy=auto/vault":     0x77bd7bea141f0d82,
		"PRank/graphpim/policy=auto/vault": 0x77bd7bea141f0d82,
		"SpMV/baseline/policy=/hmc":        0xeab442c3f63cd19f,
		"SpMV/upei/policy=/hmc":            0x92774aeb98a5b03d,
		"SpMV/graphpim/policy=/hmc":        0xe1c5b84a442636f6,
		"SpMV/baseline/policy=/ddr":        0xf4cffaa3284fd7b1,
		"SpMV/upei/policy=/ddr":            0xb4c6d7740480d625,
		"SpMV/graphpim/policy=/ddr":        0xe9da29b271c38f85,
		"SpMV/baseline/policy=/vault":      0xeb3e7c0c54731ea5,
		"SpMV/upei/policy=/vault":          0xff882e8326f573b5,
		"SpMV/graphpim/policy=/vault":      0x8221ae130fd4f79e,
		"SpMV/baseline/policy=auto/hmc":    0xeab442c3f63cd19f,
		"SpMV/upei/policy=auto/hmc":        0x356fc93fb8a50285,
		"SpMV/graphpim/policy=auto/hmc":    0x356fc93fb8a50285,
		"SpMV/baseline/policy=auto/ddr":    0xf4cffaa3284fd7b1,
		"SpMV/upei/policy=auto/ddr":        0xbdae8f7c933d3b37,
		"SpMV/graphpim/policy=auto/ddr":    0xbdae8f7c933d3b37,
		"SpMV/baseline/policy=auto/vault":  0xeb3e7c0c54731ea5,
		"SpMV/upei/policy=auto/vault":      0xfe40ca3f2000d37d,
		"SpMV/graphpim/policy=auto/vault":  0xfe40ca3f2000d37d,
	}
	g := GenerateLDBC(1024, 7)
	type cell struct{ policy, memory string }
	var cells []cell
	for _, policy := range []string{"", "auto"} {
		for _, memory := range []string{"hmc", "ddr", "vault"} {
			cells = append(cells, cell{policy, memory})
		}
	}
	for _, name := range []string{"BFS", "PRank", "SpMV"} {
		for _, c := range cells {
			opts := DefaultOptions()
			opts.Policy, opts.Memory = c.policy, c.memory
			run := NewRun(g, opts)
			for _, cfg := range []Config{ConfigBaseline, ConfigUPEI, ConfigGraphPIM} {
				w, err := WorkloadByName(name)
				if err != nil {
					t.Fatal(err)
				}
				key := fmt.Sprintf("%s/%s/policy=%s/%s", name, cfg, c.policy, c.memory)
				got := resultHash(run.Execute(w, cfg))
				if want, ok := golden[key]; !ok || got != want {
					t.Errorf("%q: %#016x, want %#016x", key, got, want)
				}
			}
		}
	}
}
