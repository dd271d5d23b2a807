package main

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"graphpim"
)

func TestMakeEnv(t *testing.T) {
	e := makeEnv(true, 0, 0)
	if e.Vertices != 2048 {
		t.Fatalf("quick env vertices = %d", e.Vertices)
	}
	e = makeEnv(false, 0, 0)
	if e.Vertices != 16384 {
		t.Fatalf("default env vertices = %d", e.Vertices)
	}
	e = makeEnv(false, 4096, 99)
	if e.Vertices != 4096 || e.AppVertices != 4096 || e.Seed != 99 {
		t.Fatalf("overrides ignored: %+v", e)
	}
}

func testCLIEnv(workers int) *graphpim.Env {
	env := graphpim.QuickEnv()
	env.Vertices = 512
	env.AppVertices = 512
	env.SweepSizes = []int{512}
	env.Parallelism = workers
	env.Check = true
	return env
}

// TestRunExperimentsRegistryOrder checks the run command's output
// contract: experiment tables print in the requested (registry) order and
// are byte-identical at any -j, even though the parallel engine completes
// simulation cells out of order.
func TestRunExperimentsRegistryOrder(t *testing.T) {
	exps := []graphpim.Experiment{}
	// A mix of static tables and a simulating experiment, deliberately
	// not in registry order.
	for _, id := range []string{"ext-dependent-block", "table3-applicability", "table1-hmc-atomics"} {
		ex, err := graphpim.ExperimentByID(id)
		if err != nil {
			t.Fatal(err)
		}
		exps = append(exps, ex)
	}

	render := func(workers int) string {
		var buf bytes.Buffer
		if err := runExperiments(&buf, testCLIEnv(workers), exps, "text", nil); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial := render(1)
	parallel := render(8)

	if serial != parallel {
		t.Fatalf("output differs between -j 1 and -j 8:\n--- j1 ---\n%s\n--- j8 ---\n%s", serial, parallel)
	}
	var positions []int
	for _, ex := range exps {
		pos := strings.Index(parallel, "# "+ex.ID+" ")
		if pos < 0 {
			t.Fatalf("experiment %s missing from output", ex.ID)
		}
		positions = append(positions, pos)
	}
	if !sort.IntsAreSorted(positions) {
		t.Fatalf("experiments printed out of requested order: positions %v\n%s", positions, parallel)
	}
}

// TestReplayTruncatedManifestExitsTwo: a corrupt replay directory is an
// input error — the CLI must exit 2 with a clear message, not dump a
// stack trace or pretend partial success.
func TestReplayTruncatedManifestExitsTwo(t *testing.T) {
	dir := t.TempDir()
	// A manifest cut off mid-object, as a crashed `run -out` would leave.
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"),
		[]byte(`{"tool":"graphpim","env":{"vertices":16384,`), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"replay", "-in", dir, "all"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2; stderr:\n%s", code, stderr.String())
	}
	msg := stderr.String()
	if !strings.Contains(msg, "replay:") || !strings.Contains(msg, dir) {
		t.Fatalf("error message does not identify the corrupt directory: %q", msg)
	}
	if strings.Contains(msg, "goroutine") {
		t.Fatalf("stack trace leaked to stderr:\n%s", msg)
	}
}

// TestReplayBadManifestExitsTwo: a manifest whose environment fails the
// checks run applies to its flags, or whose records carry no cell key or
// live outside the run directory, is an input error — exit 2 with a
// message, never a generator panic or a silent re-simulation.
func TestReplayBadManifestExitsTwo(t *testing.T) {
	const env = `"seed":7,"threads":16,"sweep_sizes":[512],"app_vertices":2048,"parallelism":1`
	const goodRecord = `{"experiment":"fig1-ipc","workload":"BFS","config":"Baseline"}`
	cases := []struct {
		name, env, file, records, want string
	}{
		{"vertices", `"vertices":-5,` + env, "fig1-ipc.jsonl", goodRecord, "vertices must be at least 16 (got -5)"},
		{"sweep", `"vertices":2048,"seed":7,"threads":16,"sweep_sizes":[512,1],"app_vertices":2048`,
			"fig1-ipc.jsonl", goodRecord, "sweep size must be at least 2 (got 1)"},
		{"app", `"vertices":2048,"seed":7,"threads":16,"app_vertices":15`, "fig1-ipc.jsonl", goodRecord,
			"app vertices must be at least 16 (got 15)"},
		{"threads", `"vertices":2048,"seed":7,"threads":0,"app_vertices":2048`, "fig1-ipc.jsonl", goodRecord,
			"threads must be in 1..16 (got 0)"},
		{"memory", `"vertices":2048,` + env + `,"memory":"sram"`, "fig1-ipc.jsonl", goodRecord,
			`replay: unknown memory backend "sram"`},
		{"policy", `"vertices":2048,` + env + `,"policy":"always"`, "fig1-ipc.jsonl", goodRecord,
			`replay: unknown placement policy "always"`},
		{"keyless", `"vertices":2048,` + env, "fig1-ipc.jsonl", `{"bogus":1}`, "corrupt records"},
		{"escape", `"vertices":2048,` + env, "../fig1-ipc.jsonl", goodRecord, "corrupt records"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			manifest := `{"tool":"graphpim","format":1,"env":{` + c.env + `},` +
				`"experiments":[{"id":"fig1-ipc","file":"` + c.file + `","cells":1}]}`
			if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte(manifest), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "fig1-ipc.jsonl"), []byte(c.records+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			if code := run([]string{"replay", "-in", dir, "fig1-ipc"}, &stdout, &stderr); code != 2 {
				t.Fatalf("exit code = %d, want 2; stderr:\n%s", code, stderr.String())
			}
			if msg := stderr.String(); !strings.Contains(msg, c.want) || strings.Contains(msg, "goroutine") {
				t.Fatalf("stderr %q does not report %q", msg, c.want)
			}
			if stdout.Len() != 0 {
				t.Fatalf("a rejected replay printed tables:\n%s", stdout.String())
			}
		})
	}
}

func TestReplayMissingDirExitsTwo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"replay", "-in", filepath.Join(t.TempDir(), "nope")}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2; stderr:\n%s", code, stderr.String())
	}
}

// TestWorkloadUnknownNameExitsTwo: an unknown workload name is a usage
// error — exit 2 with every valid name listed in registry order, so the
// user never has to guess the spelling.
func TestWorkloadUnknownNameExitsTwo(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"workload", "-quick", "Bogus"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2; stderr:\n%s", code, stderr.String())
	}
	msg := stderr.String()
	if !strings.Contains(msg, `"Bogus"`) {
		t.Fatalf("error does not name the bad input: %q", msg)
	}
	var names []string
	for _, w := range graphpim.RegistryWorkloads() {
		names = append(names, w.Info().Name)
	}
	if want := strings.Join(names, ", "); !strings.Contains(msg, want) {
		t.Fatalf("error does not list valid names in registry order:\n%s\nwant list: %s", msg, want)
	}
}

// TestPolicyFlagValidation: -policy rejects unknown values with a usage
// error on both subcommands.
func TestPolicyFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"run", "-quick", "-policy", "bogus", "ext-autotune"},
		{"workload", "-quick", "-policy", "bogus", "BFS"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Fatalf("%v: exit code = %d, want 2; stderr:\n%s", args, code, stderr.String())
		}
		if msg := stderr.String(); !strings.Contains(msg, `"bogus"`) || !strings.Contains(msg, "auto, host, pim, upei") {
			t.Fatalf("%v: error does not list valid policies: %q", args, msg)
		}
	}
}

// TestCheckFlagOutputIdentity is the CLI half of the sanitizer's
// zero-perturbation contract: `run -check` must produce byte-identical
// stdout to a plain run, at any worker count.
func TestCheckFlagOutputIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	render := func(extra ...string) string {
		args := append([]string{"run", "-quick", "-q", "-vertices", "512"}, extra...)
		args = append(args, "ext-dependent-block")
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("run %v exited %d:\n%s", args, code, stderr.String())
		}
		return stdout.String()
	}
	plain := render("-j", "1")
	checked := render("-check", "-j", "1")
	checkedParallel := render("-check", "-j", "8")
	if checked != plain {
		t.Fatalf("-check changed output:\n--- plain ---\n%s\n--- check ---\n%s", plain, checked)
	}
	if checkedParallel != plain {
		t.Fatalf("-check -j 8 changed output:\n--- plain ---\n%s\n--- check -j8 ---\n%s", plain, checkedParallel)
	}
}
