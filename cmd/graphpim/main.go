// Command graphpim runs the paper-reproduction experiments and ad hoc
// workload simulations from the command line.
//
// Usage:
//
//	graphpim list
//	    List every experiment (paper table/figure reproductions).
//
//	graphpim run [-quick] [-vertices N] [-seed S] [-mem KIND] [-policy P] [-format F] [-out DIR] all|<id>...
//	    Run experiments and print their tables. "all" runs the full
//	    evaluation in paper order. -mem swaps the memory backend every
//	    simulation runs against (hmc|ddr|lpddr|vault). -policy overrides
//	    the offload placement of every non-baseline cell (auto|host|pim|
//	    upei; "auto" is the internal/tune profiler). -out writes one
//	    JSONL record file per experiment plus a manifest.json, from which
//	    `graphpim replay` regenerates every table without re-simulating.
//
//	graphpim replay -in DIR [all|<id>...]
//	    Regenerate experiment tables from a recorded run directory.
//
//	graphpim workload [-quick] [-vertices N] [-config baseline|upei|graphpim] [-mem KIND] [-policy P] <name>
//	    Simulate one GraphBIG workload and print its headline numbers.
//	    -mem swaps the memory backend (hmc|ddr|lpddr|vault); on the
//	    PIM-less ddr backend, offload configurations degrade gracefully
//	    to the conventional datapath. -policy overrides -config with a
//	    placement policy ("auto" profiles the graph and trace and prints
//	    the tuner's reasoning).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"graphpim"
	"graphpim/internal/harness"
	"graphpim/internal/machine"
	"graphpim/internal/mem"
	"graphpim/internal/mem/backends"
	"graphpim/internal/obs"
	"graphpim/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// fmtRatio formats a derived metric, rendering the NaN that
// machine.Result returns for zero-denominator ratios as "n/a".
func fmtRatio(x float64, format string) string {
	if math.IsNaN(x) {
		return "n/a"
	}
	return fmt.Sprintf(format, x)
}

// run is the testable CLI entry point: it dispatches on the subcommand
// and returns the process exit code (0 success, 1 runtime failure, 2
// usage error).
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "list":
		return cmdList(stdout)
	case "run":
		return cmdRun(args[1:], stdout, stderr)
	case "replay":
		return cmdReplay(args[1:], stdout, stderr)
	case "workload":
		return cmdWorkload(args[1:], stdout, stderr)
	case "report":
		return cmdReport(args[1:], stderr)
	case "trace":
		return cmdTrace(args[1:], stdout, stderr)
	case "graph":
		return cmdGraph(args[1:], stdout, stderr)
	case "-h", "--help", "help":
		usage(stderr)
		return 0
	default:
		fmt.Fprintf(stderr, "unknown command %q\n\n", args[0])
		usage(stderr)
		return 2
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `graphpim — GraphPIM (HPCA 2017) reproduction harness

commands:
  list                                   list all experiments
  run [flags] all|<id>...                run experiments, print tables
  replay -in DIR [all|<id>...]           regenerate tables from a recorded run
  workload [flags] <name>                simulate one workload
  report [flags] [-o FILE]               run everything, write a Markdown report
  trace [flags] <name>|-replay FILE      generate/save or replay instruction traces
  graph gen|info [flags]                 generate synthetic graphs / inspect edge lists

run, workload, report and trace spill every trace they build to an
unlinked file in $TMPDIR (default /tmp), which must be writable
(trace -save writes the save file instead). trace -replay FILE
[-config baseline|upei|graphpim] replays on the default experiment
machine; a saved trace names no workload, so replay assumes the FP
extension and an active PMR.

run/workload flags:
  -quick           small-scale environment (fast)
  -vertices N      LDBC graph size (default 16384)
  -seed S          generator seed (default 7)
  -j N             parallel workers for simulation cells (default: all CPUs)
  -format F        output format: text|json|csv (default text)
  -out DIR         write per-experiment JSONL records + manifest.json
  -check           enable simulation sanitizer audits (slower, byte-identical output)
  -q               suppress progress output on stderr
  -cpuprofile F    write a CPU profile of the experiment run
  -memprofile F    write a heap profile taken after the experiment run
  -config C        workload config: baseline|upei|graphpim (workload cmd)
  -mem M           memory backend kind: hmc|ddr|lpddr|vault (run + workload cmds;
                   ddr has no PIM units, offload configs degrade gracefully)
  -policy P        placement policy override for offload configs (run + workload
                   cmds): host|pim|upei pin the placement, auto profiles the
                   graph/trace and lets the tuner decide; baselines are never
                   remapped (they stay the speedup denominators)`)
}

// writeExperimentList prints every experiment in registry order — the
// paper reproductions first, then the extras — one line each with its
// paper anchor and title. It is both the `list` subcommand body and the
// valid-id listing shown on an unknown-experiment error.
func writeExperimentList(w io.Writer, indent string) {
	for _, ex := range graphpim.Experiments() {
		fmt.Fprintf(w, "%s%-24s %-12s %s\n", indent, ex.ID, ex.Paper, ex.Title)
	}
	for _, ex := range graphpim.ExtraExperiments() {
		fmt.Fprintf(w, "%s%-24s %-12s %s\n", indent, ex.ID, "extra", ex.Title)
	}
}

func cmdList(w io.Writer) int {
	writeExperimentList(w, "")
	return 0
}

func makeEnv(quick bool, vertices int, seed uint64) *graphpim.Env {
	var env *graphpim.Env
	if quick {
		env = graphpim.QuickEnv()
	} else {
		env = graphpim.DefaultEnv()
	}
	if vertices > 0 {
		env.Vertices = vertices
		env.AppVertices = vertices
	}
	if seed != 0 {
		env.Seed = seed
	}
	return env
}

// validFormat checks the -format flag value.
func validFormat(f string) bool {
	return f == "text" || f == "json" || f == "csv"
}

// Smallest graphs the generators build: LDBC, R-MAT and Erdős–Rényi
// need two vertices, the bitcoin- and twitter-shaped generators sixteen.
const (
	minVertices    = 2
	minAppVertices = 16
)

// checkVertices validates a -vertices flag value against the smallest
// graph the selected generator can build; a smaller value reports a
// usage (exit 2) error instead of panicking inside the generator.
func checkVertices(sub string, v, least int, stderr io.Writer) bool {
	if v >= least {
		return true
	}
	fmt.Fprintf(stderr, "%s: -vertices must be at least %d (got %d)\n", sub, least, v)
	return false
}

// flagValues snapshots every flag of fs (set or default) for the run
// manifest.
func flagValues(fs *flag.FlagSet) map[string]string {
	m := make(map[string]string)
	fs.VisitAll(func(f *flag.Flag) { m[f.Name] = f.Value.String() })
	return m
}

// checkPolicy validates a -policy flag value; an unknown policy reports
// the valid values and returns false for a usage (exit 2) failure.
func checkPolicy(sub, policy string, stderr io.Writer) bool {
	if harness.ValidPolicy(policy) {
		return true
	}
	fmt.Fprintf(stderr, "%s: unknown placement policy %q\n", sub, policy)
	fmt.Fprintln(stderr, "valid policies:", harness.Policies())
	return false
}

// checkMemKind validates a -mem flag value against the backend list; an
// unknown kind reports the valid kinds in list order (mirroring
// the unknown-experiment-id behaviour) and returns false for a usage
// (exit 2) failure.
func checkMemKind(sub, kind string, stderr io.Writer) bool {
	if _, ok := backends.DefaultConfig(kind); ok {
		return true
	}
	fmt.Fprintf(stderr, "%s: unknown memory backend %q\n", sub, kind)
	fmt.Fprintf(stderr, "valid backends (registry order): %s\n", strings.Join(backends.Kinds(), ", "))
	return false
}

// checkManifestEnv validates a recorded environment with the checks run
// applies to its flags, so a corrupt or hand-edited manifest exits 2
// with a message instead of panicking inside a generator or the machine.
func checkManifestEnv(dir string, env obs.EnvInfo, stderr io.Writer) bool {
	bad := func(format string, args ...any) bool {
		fmt.Fprintf(stderr, "replay: manifest in %s: "+format+"\n", append([]any{dir}, args...)...)
		return false
	}
	if env.Vertices < minAppVertices {
		return bad("vertices must be at least %d (got %d)", minAppVertices, env.Vertices)
	}
	for _, v := range env.SweepSizes {
		if v < minVertices {
			return bad("sweep size must be at least %d (got %d)", minVertices, v)
		}
	}
	if env.AppVertices < minAppVertices {
		return bad("app vertices must be at least %d (got %d)", minAppVertices, env.AppVertices)
	}
	if cores := machine.Baseline().NumCores; env.Threads < 1 || env.Threads > cores {
		return bad("threads must be in 1..%d (got %d)", cores, env.Threads)
	}
	if env.Memory != "" && !checkMemKind("replay", env.Memory, stderr) {
		return false
	}
	return checkPolicy("replay", env.Policy, stderr)
}

// checkSpillDir reports an unwritable temp directory as a one-line
// runtime failure (exit 1) before any trace is built: every trace spills
// there.
func checkSpillDir(sub string, stderr io.Writer) bool {
	if err := trace.CheckSpillDir(); err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", sub, err)
		return false
	}
	return true
}

// resolveExperiments maps requested ids to experiments; "all" selects
// the full paper evaluation. An unknown id is reported together with
// the valid ids in registry order.
func resolveExperiments(ids []string, stderr io.Writer) ([]graphpim.Experiment, bool) {
	if len(ids) == 1 && ids[0] == "all" {
		return graphpim.Experiments(), true
	}
	var exps []graphpim.Experiment
	for _, id := range ids {
		ex, err := graphpim.ExperimentByID(id)
		if err != nil {
			fmt.Fprintf(stderr, "run: unknown experiment %q\n", id)
			fmt.Fprintln(stderr, "valid experiments (registry order):")
			writeExperimentList(stderr, "  ")
			return nil, false
		}
		exps = append(exps, ex)
	}
	return exps, true
}

func cmdRun(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "small-scale environment")
	vertices := fs.Int("vertices", 0, "LDBC graph size override")
	seed := fs.Uint64("seed", 0, "generator seed override")
	format := fs.String("format", "text", "output format: text|json|csv")
	outDir := fs.String("out", "", "write JSONL records + manifest.json to this directory")
	checkOn := fs.Bool("check", false, "enable simulation sanitizer audits (slower, identical output)")
	quiet := fs.Bool("q", false, "suppress progress output")
	cpuprofile := fs.String("cpuprofile", "", "write CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write heap profile to this file")
	workers := fs.Int("j", runtime.NumCPU(), "parallel workers for simulation cells")
	memKind := fs.String("mem", "hmc", "memory backend kind for every simulation")
	policy := fs.String("policy", "", "placement policy override for offload cells: auto|host|pim|upei")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !checkMemKind("run", *memKind, stderr) {
		return 2
	}
	if !checkPolicy("run", *policy, stderr) {
		return 2
	}
	if *workers < 1 {
		fmt.Fprintf(stderr, "run: -j must be at least 1 (got %d); use -j 1 for a serial run\n", *workers)
		return 2
	}
	// 0 keeps the environment default; any other value also sizes the
	// bitcoin/twitter-shaped application graphs.
	if *vertices != 0 && !checkVertices("run", *vertices, minAppVertices, stderr) {
		return 2
	}
	if !validFormat(*format) {
		fmt.Fprintf(stderr, "run: invalid -format %q (valid: text, json, csv)\n", *format)
		return 2
	}
	ids := fs.Args()
	if len(ids) == 0 {
		fmt.Fprintln(stderr, "run: need experiment ids or \"all\"")
		return 2
	}
	exps, ok := resolveExperiments(ids, stderr)
	if !ok {
		return 2
	}
	if !checkSpillDir("run", stderr) {
		return 1
	}

	env := makeEnv(*quick, *vertices, *seed)
	env.Parallelism = *workers
	env.Check = *checkOn
	if *memKind != "hmc" {
		// "hmc" stays "" so manifests and goldens of default runs keep
		// their historical (field-absent) shape.
		env.Memory = *memKind
	}
	env.Policy = *policy
	defer env.Close()
	if !*quiet {
		env.Reporter = obs.NewTextReporter(stderr)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	var writer *obs.RunWriter
	if *outDir != "" {
		var err error
		writer, err = obs.NewRunWriter(*outDir, env.Info(), flagValues(fs))
		if err != nil {
			fmt.Fprintf(stderr, "run: cannot write to -out directory %s: %v\n", *outDir, err)
			return 2
		}
	}

	if err := runExperiments(stdout, env, exps, *format, writer); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(stderr, err)
			f.Close()
			return 1
		}
		f.Close()
	}
	return 0
}

// tableJSON is a Table's JSON shape: one object per experiment, emitted
// as a JSON stream in list order.
type tableJSON struct {
	ID      string     `json:"id"`
	Paper   string     `json:"paper,omitempty"`
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

// printTable renders one experiment's table in the requested format.
// Output carries no wall-clock timings, so it is byte-identical at any
// -j and across repeat runs (timings live in the manifest and on the
// stderr progress reporter).
func printTable(w io.Writer, ex graphpim.Experiment, tb *graphpim.Table, format string) error {
	switch format {
	case "json":
		return json.NewEncoder(w).Encode(tableJSON{
			ID: tb.ID, Paper: ex.Paper, Title: tb.Title,
			Headers: tb.Headers, Rows: tb.Rows, Notes: tb.Notes,
		})
	case "csv":
		fmt.Fprintf(w, "# %s (%s) — %s\n", ex.ID, ex.Paper, ex.Title)
		fmt.Fprintln(w, tb.CSV())
	default:
		fmt.Fprintf(w, "# %s (%s) — %s\n", ex.ID, ex.Paper, ex.Title)
		fmt.Fprintln(w, tb.String())
	}
	return nil
}

// runExperiments executes exps against env in list order, printing every
// table to w and, when writer is non-nil, exporting each experiment's
// cell records plus the run manifest.
func runExperiments(w io.Writer, env *graphpim.Env, exps []graphpim.Experiment, format string, writer *obs.RunWriter) error {
	start := time.Now()
	for _, ex := range exps {
		tb, runInfo, recs, err := env.RunExperimentObserved(context.Background(), ex)
		if err != nil {
			return err
		}
		if writer != nil {
			if err := writer.WriteExperiment(runInfo, recs); err != nil {
				return err
			}
		}
		if err := printTable(w, ex, tb, format); err != nil {
			return err
		}
	}
	if writer != nil {
		return writer.Close(time.Since(start))
	}
	return nil
}

// cmdReplay regenerates experiment tables from a run directory written
// by `run -out`: the recorded cell results are preloaded into a fresh
// Env, so replaying assembles every table without simulating.
func cmdReplay(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "run directory containing manifest.json")
	format := fs.String("format", "text", "output format: text|json|csv")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *in == "" {
		fmt.Fprintln(stderr, "replay: need -in DIR")
		return 2
	}
	if !validFormat(*format) {
		fmt.Fprintf(stderr, "replay: invalid -format %q (valid: text, json, csv)\n", *format)
		return 2
	}
	m, err := obs.LoadManifest(*in)
	if err != nil {
		fmt.Fprintf(stderr, "replay: cannot load run directory %s: %v\n", *in, err)
		return 2
	}
	if !checkManifestEnv(*in, m.Env, stderr) {
		return 2
	}

	runs := m.Experiments
	if ids := fs.Args(); len(ids) > 0 && !(len(ids) == 1 && ids[0] == "all") {
		want := make(map[string]bool, len(ids))
		for _, id := range ids {
			want[id] = true
		}
		var filtered []obs.ExperimentRun
		for _, r := range runs {
			if want[r.ID] {
				filtered = append(filtered, r)
				delete(want, r.ID)
			}
		}
		for id := range want {
			fmt.Fprintf(stderr, "replay: experiment %q not in %s\n", id, *in)
			return 2
		}
		runs = filtered
	}

	// Replay serially: every cell is a preloaded memo hit, so there is
	// nothing to parallelize and the output order is the record order.
	env := harness.EnvFromInfo(m.Env)
	env.Parallelism = 1
	defer env.Close()
	for _, r := range runs {
		recs, err := obs.LoadRecords(*in, r)
		if err != nil {
			fmt.Fprintf(stderr, "replay: corrupt records in %s: %v\n", *in, err)
			return 2
		}
		env.PreloadRecords(recs)
		ex, err := graphpim.ExperimentByID(r.ID)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		tb, err := env.RunExperiment(context.Background(), ex)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := printTable(stdout, ex, tb, *format); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	return 0
}

func cmdWorkload(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("workload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "small-scale environment")
	vertices := fs.Int("vertices", 16384, "LDBC graph size")
	seed := fs.Uint64("seed", 7, "generator seed")
	config := fs.String("config", "graphpim", "baseline|upei|graphpim")
	policy := fs.String("policy", "", "placement policy override: auto|host|pim|upei")
	memKind := fs.String("mem", "hmc", "memory backend kind")
	checkOn := fs.Bool("check", false, "enable simulation sanitizer audits (slower, identical output)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "workload: need exactly one workload name")
		return 2
	}
	if !checkMemKind("workload", *memKind, stderr) {
		return 2
	}
	if !checkPolicy("workload", *policy, stderr) {
		return 2
	}
	if *quick {
		*vertices = 2048
	}
	if !checkVertices("workload", *vertices, minVertices, stderr) {
		return 2
	}
	w, err := graphpim.WorkloadByName(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	opts := graphpim.DefaultOptions()
	opts.Check = *checkOn
	opts.Memory = *memKind
	opts.Policy = *policy
	if err := opts.Validate(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if !checkSpillDir("workload", stderr) {
		return 1
	}
	if _, ok := harness.KindByName(*config); !ok {
		fmt.Fprintf(stderr, "unknown config %q\n", *config)
		return 2
	}
	cfg := graphpim.Config(*config)
	g := graphpim.GenerateLDBC(*vertices, *seed)
	run := graphpim.NewRun(g, opts)

	base := run.Execute(w, graphpim.ConfigBaseline)
	res := base
	if cfg != graphpim.ConfigBaseline {
		res = run.Execute(w, cfg)
	}

	info := w.Info()
	fmt.Fprintf(stdout, "workload:   %s (%s, %s)\n", info.Name, info.Full, info.Category)
	fmt.Fprintf(stdout, "graph:      LDBC-like, %d vertices, %d edges, seed %d\n",
		g.NumVertices(), g.NumEdges(), *seed)
	fmt.Fprintf(stdout, "config:     %s\n", res.Config)
	fmt.Fprintf(stdout, "memory:     %s\n", *memKind)
	fmt.Fprintf(stdout, "cycles:     %d\n", res.Cycles)
	fmt.Fprintf(stdout, "instrs:     %d\n", res.Instructions)
	fmt.Fprintf(stdout, "IPC/core:   %s\n", fmtRatio(res.IPC(16), "%.3f"))
	fmt.Fprintf(stdout, "L3 MPKI:    %s\n", fmtRatio(res.MPKI("cache.l3"), "%.1f"))
	if mem.FlitTraffic(*memKind) {
		fmt.Fprintf(stdout, "link FLITs: %d\n", res.TotalFlits())
	} else {
		fmt.Fprintf(stdout, "bus bytes:  %d\n",
			res.MemStat("mem.req.bytes")+res.MemStat("mem.rsp.bytes"))
	}
	if cfg != graphpim.ConfigBaseline {
		fmt.Fprintf(stdout, "speedup:    %s over baseline (%d cycles)\n",
			fmtRatio(res.Speedup(base), "%.2fx"), base.Cycles)
	}
	fmt.Fprintf(stdout, "offloaded:  %d PIM atomics, %d host atomics\n",
		res.Stats["mem.pim_atomics"], res.Stats["mem.host_atomics"])
	if *policy == "auto" && cfg != graphpim.ConfigBaseline {
		placement := [...]string{"host", "pim", "upei"}[res.Stats["tune.placement"]]
		fmt.Fprintf(stdout, "tuner:      placed on %s (degree CV %.2f, footprint %.2fx LLC, %.2f atomics/kinstr)\n",
			placement,
			float64(res.Stats["tune.degree_cv_milli"])/1000,
			float64(res.Stats["tune.footprint_ratio_milli"])/1000,
			float64(res.Stats["tune.atomics_per_kinstr_milli"])/1000)
	}
	return 0
}
