package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphpim/internal/obs"
)

// runCLI drives the real CLI entry point with captured streams.
func runCLI(args ...string) (stdout, stderr string, code int) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return out.String(), errb.String(), code
}

func TestRunRejectsBadWorkerCount(t *testing.T) {
	for _, j := range []string{"0", "-3"} {
		_, stderr, code := runCLI("run", "-j", j, "all")
		if code != 2 {
			t.Fatalf("-j %s: exit code %d, want 2", j, code)
		}
		if !strings.Contains(stderr, "-j must be at least 1") {
			t.Fatalf("-j %s: unhelpful message %q", j, stderr)
		}
	}
}

func TestRunUnknownExperimentListsRegistry(t *testing.T) {
	_, stderr, code := runCLI("run", "bogus-id")
	if code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr, `unknown experiment "bogus-id"`) {
		t.Fatalf("missing unknown-experiment message: %q", stderr)
	}
	// The message must list valid ids in registry order, extras last.
	for _, id := range []string{"fig1-ipc", "fig7-speedup", "ext-dependent-block"} {
		if !strings.Contains(stderr, id) {
			t.Fatalf("valid-id list missing %s:\n%s", id, stderr)
		}
	}
	if strings.Index(stderr, "fig1-ipc") > strings.Index(stderr, "fig7-speedup") ||
		strings.Index(stderr, "fig7-speedup") > strings.Index(stderr, "ext-dependent-block") {
		t.Fatalf("valid-id list out of registry order:\n%s", stderr)
	}
}

// TestListSubcommand pins the `list` output: every registry experiment
// with its one-line description, paper reproductions first and extras
// last, and the same listing (indented) on the unknown-id error path —
// both come from writeExperimentList.
func TestListSubcommand(t *testing.T) {
	out, _, code := runCLI("list")
	if code != 0 {
		t.Fatalf("list: exit code %d", code)
	}
	for _, want := range []string{
		"fig1-ipc", "fig7-speedup", "ext-dependent-block", "ext-ddr-host",
		"Speedups over the baseline system", // a description, not just ids
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("list output missing %q:\n%s", want, out)
		}
	}
	if strings.Index(out, "fig1-ipc") > strings.Index(out, "fig7-speedup") ||
		strings.Index(out, "fig7-speedup") > strings.Index(out, "ext-dependent-block") {
		t.Fatalf("list out of registry order:\n%s", out)
	}

	_, stderr, _ := runCLI("run", "bogus-id")
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if !strings.Contains(stderr, line) {
			t.Fatalf("unknown-id listing missing list line %q:\n%s", line, stderr)
		}
	}
}

// TestWorkloadRejectsBadMem pins the exit-2 path for an invalid memory
// backend selector.
func TestWorkloadRejectsBadMem(t *testing.T) {
	_, stderr, code := runCLI("workload", "-quick", "-mem", "sram", "BFS")
	if code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr, `unknown memory backend "sram"`) {
		t.Fatalf("unhelpful message %q", stderr)
	}
}

// TestRunRejectsBadMem pins the exit-2 path for `run -mem`: the message
// names the bad kind and lists the valid ones in registry order.
func TestRunRejectsBadMem(t *testing.T) {
	_, stderr, code := runCLI("run", "-quick", "-mem", "sram", "all")
	if code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr, `run: unknown memory backend "sram"`) {
		t.Fatalf("unhelpful message %q", stderr)
	}
	if !strings.Contains(stderr, "valid backends (registry order): hmc, ddr, lpddr, vault") {
		t.Fatalf("valid-kind list missing or out of order:\n%s", stderr)
	}
}

// TestWorkloadNewBackends smokes one workload on each new substrate:
// both offload (nonzero PIM atomics) and report bus/link bytes rather
// than HMC FLITs.
func TestWorkloadNewBackends(t *testing.T) {
	for _, kind := range []string{"lpddr", "vault"} {
		out, stderr, code := runCLI("workload", "-quick", "-mem", kind, "-config", "graphpim", "BFS")
		if code != 0 {
			t.Fatalf("%s: exit code %d: %s", kind, code, stderr)
		}
		for _, want := range []string{"memory:     " + kind, "bus bytes:"} {
			if !strings.Contains(out, want) {
				t.Fatalf("%s output missing %q:\n%s", kind, want, out)
			}
		}
		if strings.Contains(out, "offloaded:  0 PIM atomics") {
			t.Fatalf("%s: GraphPIM offloaded nothing:\n%s", kind, out)
		}
		if strings.Contains(out, "link FLITs") {
			t.Fatalf("%s run still reports link FLITs:\n%s", kind, out)
		}
	}
}

// TestWorkloadDDRBackend runs one workload on the DDR backend: the
// GraphPIM config degrades to the conventional datapath (zero PIM
// atomics) and the traffic line reports bus bytes, not link FLITs.
func TestWorkloadDDRBackend(t *testing.T) {
	out, stderr, code := runCLI("workload", "-quick", "-mem", "ddr", "-config", "graphpim", "BFS")
	if code != 0 {
		t.Fatalf("exit code %d: %s", code, stderr)
	}
	for _, want := range []string{"memory:     ddr", "bus bytes:", "offloaded:  0 PIM atomics"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "link FLITs") {
		t.Fatalf("DDR run still reports link FLITs:\n%s", out)
	}
}

func TestRunRejectsBadFormat(t *testing.T) {
	_, stderr, code := runCLI("run", "-format", "yaml", "all")
	if code != 2 {
		t.Fatalf("exit code %d, want 2", code)
	}
	if !strings.Contains(stderr, `invalid -format "yaml"`) {
		t.Fatalf("unhelpful message %q", stderr)
	}
}

func TestReplayNeedsInDir(t *testing.T) {
	if _, _, code := runCLI("replay"); code != 2 {
		t.Fatalf("replay without -in: exit code %d, want 2", code)
	}
}

// TestRunJSONDeterministicAcrossWorkers is the -format json regression
// gate: stdout must be byte-identical at -j 1 and -j 8 (timings live in
// the manifest and on stderr, never in the table stream).
func TestRunJSONDeterministicAcrossWorkers(t *testing.T) {
	render := func(j string) string {
		out, stderr, code := runCLI("run", "-quick", "-q", "-format", "json",
			"-j", j, "ext-dependent-block", "table1-hmc-atomics")
		if code != 0 {
			t.Fatalf("-j %s failed (%d): %s", j, code, stderr)
		}
		return out
	}
	if j1, j8 := render("1"), render("8"); j1 != j8 {
		t.Fatalf("-format json differs between -j 1 and -j 8:\n--- j1 ---\n%s\n--- j8 ---\n%s", j1, j8)
	}
}

// TestRunOutReplayRoundTrip is the acceptance gate for the run
// directory: `run -out DIR` writes JSONL records plus a manifest, and
// `replay -in DIR` regenerates the exact stdout of the original run
// without re-simulating.
func TestRunOutReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	out, stderr, code := runCLI("run", "-quick", "-q", "-out", dir, "-j", "8",
		"ext-dependent-block", "table3-applicability")
	if code != 0 {
		t.Fatalf("run failed (%d): %s", code, stderr)
	}

	m, err := obs.LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Experiments) != 2 {
		t.Fatalf("manifest lists %d experiments, want 2", len(m.Experiments))
	}
	if m.CellCount == 0 {
		t.Fatal("manifest records no cells; ext-dependent-block simulates six")
	}
	if m.Flags["j"] != "8" || m.Flags["quick"] != "true" {
		t.Fatalf("manifest flags not captured: %v", m.Flags)
	}
	recs, err := obs.LoadRecords(dir, m.Experiments[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != m.Experiments[0].Cells {
		t.Fatalf("record file has %d records, manifest says %d", len(recs), m.Experiments[0].Cells)
	}

	replayOut, replayErr, replayCode := runCLI("replay", "-in", dir)
	if replayCode != 0 {
		t.Fatalf("replay failed (%d): %s", replayCode, replayErr)
	}
	if replayOut != out {
		t.Fatalf("replay output differs from the original run:\n--- run ---\n%s\n--- replay ---\n%s", out, replayOut)
	}

	// A filtered replay regenerates just the requested table.
	only, _, onlyCode := runCLI("replay", "-in", dir, "table3-applicability")
	if onlyCode != 0 {
		t.Fatalf("filtered replay failed (%d)", onlyCode)
	}
	if !strings.Contains(only, "# table3-applicability") || strings.Contains(only, "# ext-dependent-block") {
		t.Fatalf("filtered replay selected the wrong tables:\n%s", only)
	}

	// Asking for an experiment the run directory does not hold fails.
	if _, _, badCode := runCLI("replay", "-in", dir, "fig7-speedup"); badCode != 2 {
		t.Fatalf("replay of unrecorded experiment: exit code %d, want 2", badCode)
	}

	// Run directories written while the machine still had a sharded
	// scheduler carry a shard count in the environment and the removed
	// -shards/-csv flags. They must still load and replay byte for byte.
	path := filepath.Join(dir, obs.ManifestFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	doc["env"].(map[string]any)["shards"] = 8
	doc["flags"].(map[string]any)["shards"] = "8"
	doc["flags"].(map[string]any)["csv"] = "false"
	if raw, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.LoadManifest(dir); err != nil {
		t.Fatalf("manifest with a shard count no longer loads: %v", err)
	}
	oldOut, oldErr, oldCode := runCLI("replay", "-in", dir)
	if oldCode != 0 {
		t.Fatalf("replay of a sharded-era manifest failed (%d): %s", oldCode, oldErr)
	}
	if oldOut != out {
		t.Fatalf("sharded-era replay differs from the original run:\n--- run ---\n%s\n--- replay ---\n%s", out, oldOut)
	}
}

// TestVerticesBelowGeneratorMinimumExitsTwo: a -vertices value below
// the smallest graph the selected generator can build (2 for
// ldbc/rmat/er, 16 for bitcoin/twitter, and 16 on run, which also sizes
// the application graphs) is a usage error with a message, never a
// generator panic. On run, 0 keeps meaning "environment default".
func TestVerticesBelowGeneratorMinimumExitsTwo(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"workload", "-vertices", "0", "BFS"}, 2, "workload: -vertices must be at least 2 (got 0)"},
		{[]string{"run", "-quick", "-vertices", "1", "fig1-ipc"}, 2, "run: -vertices must be at least 16 (got 1)"},
		{[]string{"run", "-vertices", "-5", "fig1-ipc"}, 2, "run: -vertices must be at least 16 (got -5)"},
		{[]string{"trace", "-vertices", "0", "BFS"}, 2, "trace: -vertices must be at least 2 (got 0)"},
		{[]string{"graph", "gen", "-vertices", "1"}, 2, "graph gen: -vertices must be at least 2 (got 1)"},
		{[]string{"graph", "gen", "-kind", "rmat", "-vertices", "1"}, 2, "graph gen: -vertices must be at least 2 (got 1)"},
		{[]string{"graph", "gen", "-kind", "bitcoin", "-vertices", "15"}, 2, "graph gen: -vertices must be at least 16 (got 15)"},
		{[]string{"graph", "gen", "-kind", "twitter", "-vertices", "2"}, 2, "graph gen: -vertices must be at least 16 (got 2)"},
		{[]string{"run", "-quick", "-q", "-vertices", "0", "table1-hmc-atomics"}, 0, ""},
		{[]string{"graph", "gen", "-kind", "er", "-vertices", "2"}, 0, ""},
		{[]string{"graph", "gen", "-kind", "twitter", "-vertices", "16", "-raw"}, 0, ""},
	} {
		_, stderr, code := runCLI(tc.args...)
		if code != tc.code {
			t.Fatalf("%v: exit code %d, want %d: %s", tc.args, code, tc.code, stderr)
		}
		if !strings.Contains(stderr, tc.want) {
			t.Fatalf("%v: message %q does not contain %q", tc.args, stderr, tc.want)
		}
	}
}

// TestTraceSaveReplay saves a trace (v2, the only format written) and
// replays it; the removed -v1 and -stream flags are usage errors.
func TestTraceSaveReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bfs.trc")
	out, stderr, code := runCLI("trace", "-vertices", "256", "-save", path, "BFS")
	if code != 0 || !strings.Contains(out, "saved:") {
		t.Fatalf("trace -save: exit %d: %s%s", code, out, stderr)
	}
	out, stderr, code = runCLI("trace", "-replay", path, "-config", "baseline")
	if code != 0 || !strings.Contains(out, "under Baseline") {
		t.Fatalf("trace -replay: exit %d: %s%s", code, out, stderr)
	}
	for _, flag := range []string{"-v1", "-stream"} {
		if _, _, code := runCLI("trace", flag, "-replay", path); code != 2 {
			t.Fatalf("trace %s: exit %d, want 2", flag, code)
		}
	}
}
