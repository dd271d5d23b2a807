// Command bench is graphpim's fixed benchmark: four workloads measured end
// to end in host time, a traced pass that attributes host time to the
// simulator's layers, and a comparison of two recorded run sets. See
// README.md for what each workload and metric is for.
//
// From the repository root:
//
//	bash bench/run.sh                             # every workload, 20 s each
//	bash bench/run.sh -workload replay-bfs -seed 3
//	bash bench/run.sh -trace 1 -spans spans.json  # per-layer metrics
//	bash bench/run.sh -out ledger.json            # also append the run set
//	bash bench/run.sh -compare A.json B.json@0    # verdict per metric
//
// Each timed run is a fresh child process (a re-execution of this binary),
// so it has its own heap, memo state and peak RSS. Only one child runs at
// a time, and a child's own parallelism never exceeds GOMAXPROCS.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one metric, its unit and which direction is better.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of the untraced runs, reported per workload.
// Times are seconds at reference speed (hostSpeed).
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"sim_minstr_s", "Minstr/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// hostMetrics are printed and recorded beside the end-to-end metrics so
// that the scaling to reference speed can be checked: the unscaled wall
// time and the host-speed factor of each run.
var hostMetrics = []metricDef{
	{"host_wall_s", "s", "lower"},
	{"host_speed", "ratio", "higher"},
}

// perLayer are the metrics of the traced pass.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	d := []metricDef{
		{"trace_overhead_frac", "ratio", "lower"},
		{"graph.build_ns_per_edge", "ns", "lower"},
		{"graph.build_allocs_per_edge", "count", "lower"},
		{"gframe.emit_ns_per_record", "ns", "lower"},
		{"trace.encode_ns_per_record", "ns", "lower"},
		{"trace.decode_ns_per_record", "ns", "lower"},
		{"trace.bytes_per_record", "B", "lower"},
		{"trace.stream_replay_ratio", "ratio", "lower"},
		{"cpu.ns_per_instr", "ns", "lower"},
		{"cache.ns_per_access", "ns", "lower"},
		{"cache.l1_hit_ratio", "ratio", "higher"},
		{"cache.l3_miss_ratio", "ratio", "lower"},
	}
	for _, k := range substrates {
		d = append(d, metricDef{"mem." + k + ".ns_per_request", "ns", "lower"})
	}
	d = append(d, metricDef{"pou.ns_per_route", "ns", "lower"})
	for _, k := range replayKinds {
		d = append(d, metricDef{"machine.replay_ns_per_instr." + kindLabel(k), "ns", "lower"})
	}
	for _, k := range replayKinds {
		d = append(d, metricDef{"machine.self_share." + kindLabel(k), "ratio", "lower"})
		for _, layer := range []string{"cpu", "cache", "mem", "pou"} {
			d = append(d, metricDef{"machine.layer_share." + kindLabel(k) + "." + layer, "ratio", "lower"})
		}
	}
	d = append(d,
		metricDef{"machine.shards2_speedup", "ratio", "higher"},
		metricDef{"harness.cells", "count", "lower"},
		metricDef{"harness.unique_cells", "count", "lower"},
		metricDef{"harness.cell_s_sum", "s", "lower"},
		metricDef{"harness.parallel_eff", "ratio", "higher"},
		metricDef{"harness.plan_s", "s", "lower"},
		metricDef{"harness.replay_s", "s", "lower"},
		metricDef{"obs.write_ns_per_record", "ns", "lower"},
		metricDef{"obs.load_ns_per_record", "ns", "lower"},
	)
	for _, w := range suite {
		d = append(d, metricDef{"go.gc_cpu_frac." + w.name, "ratio", "lower"})
	}
	for _, w := range suite {
		d = append(d, metricDef{"go.alloc_mb." + w.name, "MB", "lower"})
	}
	for _, k := range replayKinds {
		d = append(d, metricDef{"model.replay-bfs." + kindLabel(k) + ".cycles", "cycles", "lower"})
	}
	d = append(d, metricDef{"model.replay-bfs.graphpim_speedup", "ratio", "higher"})
	for _, k := range substrates {
		d = append(d, metricDef{"model.gnn-substrates." + k + ".cycles", "cycles", "lower"})
	}
	return append(d,
		metricDef{"model.stream-bfs.graphpim.cycles", "cycles", "lower"},
		metricDef{"model.eval-quick.cycles_sum", "cycles", "lower"},
	)
}

// workloadResult is one workload's outcome in a run set.
type workloadResult struct {
	Runs      int                `json:"runs"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]summary `json:"metrics,omitempty"`
	Model     map[string]float64 `json:"model,omitempty"`
	// SelfTime is the traced run's self time per span name, in seconds.
	SelfTime map[string]float64 `json:"self_time_s,omitempty"`
}

// runSet is one invocation's results: the entry a ledger records.
type runSet struct {
	Provenance provenance                 `json:"provenance"`
	Workloads  map[string]*workloadResult `json:"workloads"`
	// Layers holds the traced pass's per-layer metrics.
	Layers map[string]float64 `json:"layers,omitempty"`
}

// provenance records where and how a run set was measured.
type provenance struct {
	Commit     string  `json:"commit"`
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Date       string  `json:"date"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
}

func main() {
	if os.Getenv(childEnv) != "" {
		os.Exit(runChild(os.Args[1:], os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parent's settings.
type options struct {
	workloads []string
	seed      uint64
	seconds   float64
	traced    bool
	smoke     bool
	spans     string
	out       string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload (default: all four)")
	seed := fs.Uint64("seed", 7, "generator seed of every workload's inputs")
	seconds := fs.Float64("seconds", 20, "measurement time per workload, in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	spans := fs.String("spans", "", "with -trace 1, write every recorded span to this JSON file")
	out := fs.String("out", "", "append this run set to a JSON ledger file")
	smoke := fs.Bool("smoke", false, "512-vertex inputs and the fewest timed runs")
	compare := fs.Bool("compare", false, "compare two run sets: -compare FILE[@N] FILE[@N]")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareMain(fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 || (*traceFlag != 0 && *traceFlag != 1) || *seconds < 0 {
		fmt.Fprintln(stderr, "bench: usage: bench [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-spans FILE] [-out FILE] [-smoke]")
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, traced: *traceFlag == 1, smoke: *smoke, spans: *spans, out: *out}
	if o.smoke {
		o.seconds = 0
	}
	if *workload == "" {
		for _, w := range suite {
			o.workloads = append(o.workloads, w.name)
		}
	} else if _, ok := lookupWorkload(*workload); ok {
		o.workloads = []string{*workload}
	} else {
		fmt.Fprintf(stderr, "bench: unknown workload %q (valid: %s)\n", *workload, strings.Join(suiteNames(), ", "))
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: locating own binary: %v\n", err)
		return 1
	}
	p := &parent{exe: exe, o: o, stderr: stderr}
	set := runSet{Workloads: map[string]*workloadResult{}}
	if o.traced {
		p.tracedPass(&set)
	} else {
		for _, name := range o.workloads {
			set.Workloads[name] = p.timedSet(name)
		}
	}
	printSet(stdout, o, &set)
	if o.spans != "" {
		if err := writeJSON(o.spans, p.spans); err != nil {
			fmt.Fprintf(stderr, "bench: writing spans: %v\n", err)
			return 1
		}
	}
	if o.out != "" {
		set.Provenance = hostProvenance(o)
		if err := appendLedger(o.out, &set); err != nil {
			fmt.Fprintf(stderr, "bench: writing %s: %v\n", o.out, err)
			return 1
		}
	}
	printResult(stdout, o, &set)
	return 0
}

func suiteNames() []string {
	var names []string
	for _, w := range suite {
		names = append(names, w.name)
	}
	return names
}

// phaseLimit bounds one workload's timed set, and the whole traced pass,
// so a single-workload run ends within three minutes even if a child
// hangs: children still running at the limit are killed and count as
// failed operations.
const phaseLimit = 170 * time.Second

// parent runs the child processes of one invocation, one at a time.
type parent struct {
	ctx    context.Context // bounds the current phase
	exe    string
	o      options
	stderr io.Writer
	spans  []workloadSpans
}

// workloadSpans is one traced child's spans, as written to -spans.
type workloadSpans struct {
	Workload string `json:"workload"`
	Spans    []span `json:"spans"`
}

// child runs one child process and returns what it reported. A child
// that fails to start, crashes or prints no result counts as one failed
// operation.
func (p *parent) child(name string, extra ...string) childResult {
	args := append([]string{"-workload", name, "-seed", fmt.Sprint(p.o.seed)}, extra...)
	if p.o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.CommandContext(p.ctx, p.exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = p.stderr
	err := cmd.Run()
	var r childResult
	if err == nil {
		err = json.Unmarshal(out.Bytes(), &r)
	}
	if err != nil {
		r = childResult{Workload: name, Attempted: 1, Failed: 1,
			Failures: []string{fmt.Sprintf("child %s: %v", strings.Join(args, " "), err)}}
	}
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			r.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	return r
}

// minRuns is the fewest timed runs a set makes, so even the slowest
// workload reports a median of more than one run.
const minRuns = 2

// timedSet runs one discarded warm-up (the workload's setup alone), then
// timed runs until the measurement time is spent: another run starts
// while fewer than minRuns have run, or while the elapsed time plus half
// an average run is within the measurement time.
func (p *parent) timedSet(name string) *workloadResult {
	ctx, cancel := context.WithTimeout(context.Background(), phaseLimit)
	defer cancel()
	p.ctx = ctx
	wr := &workloadResult{Metrics: map[string]summary{}}
	absorb(wr, p.child(name, "-setup-only"), false)
	var samples []childResult
	start := time.Now()
	for {
		r := p.child(name)
		samples = append(samples, r)
		absorb(wr, r, true)
		elapsed := time.Since(start).Seconds()
		more := len(samples) < minRuns || elapsed+elapsed/float64(len(samples))/2 < p.o.seconds
		if !more || p.ctx.Err() != nil {
			break
		}
	}
	wr.Runs = len(samples)
	xs := map[string][]float64{}
	for _, r := range samples {
		if r.Failed > 0 || r.WallS <= 0 {
			continue
		}
		xs["wall_s"] = append(xs["wall_s"], r.RefWallS)
		xs["sim_minstr_s"] = append(xs["sim_minstr_s"], float64(r.Instrs)/r.RefWallS/1e6)
		xs["peak_rss_mb"] = append(xs["peak_rss_mb"], r.PeakRSSMB)
		xs["setup_s"] = append(xs["setup_s"], r.RefSetupS...)
		xs["host_wall_s"] = append(xs["host_wall_s"], r.WallS)
		xs["host_speed"] = append(xs["host_speed"], r.RefWallS/r.WallS)
	}
	for _, m := range append(endToEnd, hostMetrics...) {
		wr.Metrics[m.name] = summarize(m.unit, m.better, xs[m.name])
	}
	return wr
}

// absorb adds a child's operations, failures and model counts to its
// workload's result. The model counts must be identical in every run of
// a set: a difference is a failed check.
func absorb(wr *workloadResult, r childResult, timed bool) {
	if !timed && r.Failed == 0 {
		return // a clean warm-up attempted none of the set's operations
	}
	wr.Attempted += r.Attempted
	wr.Failed += r.Failed
	wr.Failures = append(wr.Failures, r.Failures...)
	if !timed || len(r.Model) == 0 {
		return
	}
	if wr.Model == nil {
		wr.Model = r.Model
		return
	}
	if diff := modelDiff(wr.Model, r.Model); len(diff) > 0 {
		wr.Failed++
		wr.Failures = append(wr.Failures, "model counts differ between runs: "+strings.Join(diff, "; "))
	}
}

// tracedPass runs one untraced reference run of each selected workload,
// then every workload once more with spans, then the layer pass. The
// per-layer metrics cover the whole suite whichever workload is selected;
// the selection decides only whose tracing overhead is measured.
func (p *parent) tracedPass(set *runSet) {
	ctx, cancel := context.WithTimeout(context.Background(), phaseLimit)
	defer cancel()
	p.ctx = ctx
	set.Layers = map[string]float64{}
	untraced := map[string]float64{}
	for _, name := range p.o.workloads {
		wr := &workloadResult{Runs: 1}
		r := p.child(name)
		absorb(wr, r, true)
		untraced[name] = r.RefWallS
		set.Workloads[name] = wr
	}
	var tracedWall, untracedWall float64
	for _, name := range append(suiteNames(), layersName) {
		r := p.child(name, "-traced")
		wr := set.Workloads[name]
		if wr == nil {
			wr = &workloadResult{}
			set.Workloads[name] = wr
		}
		absorb(wr, r, true)
		wr.Runs++
		wr.SelfTime = selfTimes(r.Spans)
		p.spans = append(p.spans, workloadSpans{Workload: name, Spans: r.Spans})
		for k, v := range r.Layers {
			set.Layers[k] = v
		}
		// The layer pass replays the same cells with recording memory
		// backends: its model counts must match the workloads'.
		for k, v := range r.Model {
			if prev, ok := set.Layers[k]; ok && prev != v {
				wr.Failed++
				wr.Failures = append(wr.Failures, fmt.Sprintf("%s is %v in the %s run, %v before", k, v, name, prev))
			}
			set.Layers[k] = v
		}
		if u, ok := untraced[name]; ok {
			tracedWall += r.RefWallS
			untracedWall += u
		}
	}
	set.Layers["trace_overhead_frac"] = tracedWall/untracedWall - 1
}

// printSet writes the human-readable report: per workload its operations,
// failures and every metric with its unit.
func printSet(w io.Writer, o options, set *runSet) {
	for _, name := range sortedKeys(set.Workloads) {
		wr := set.Workloads[name]
		fmt.Fprintf(w, "%s: %d runs, %d operations attempted, %d failed\n", name, wr.Runs, wr.Attempted, wr.Failed)
		for _, f := range wr.Failures {
			fmt.Fprintf(w, "  FAILED %s\n", f)
		}
		for _, m := range append(endToEnd, hostMetrics...) {
			s, ok := wr.Metrics[m.name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "  %-14s %12.4f %-8s q1 %.4f  q3 %.4f  min %.4f  max %.4f  n %d\n",
				m.name, s.Median, s.Unit, s.Q1, s.Q3, s.Min, s.Max, s.N)
		}
		if wr.Attempted > 0 {
			fmt.Fprintf(w, "  %-14s %12.4f %-8s\n", "failed_frac", float64(wr.Failed)/float64(wr.Attempted), "ratio")
		}
		for _, k := range sortedKeys(wr.Model) {
			fmt.Fprintf(w, "  %s %s %s\n", k, strconv.FormatFloat(wr.Model[k], 'f', -1, 64), unitOf(k))
		}
		if len(wr.SelfTime) > 0 {
			var total float64
			for _, v := range wr.SelfTime {
				total += v
			}
			fmt.Fprintf(w, "  self time by span (%.3f s traced):\n", total)
			for _, k := range sortedKeys(wr.SelfTime) {
				fmt.Fprintf(w, "    %-32s %8.3f s  %5.1f%%\n", k, wr.SelfTime[k], 100*wr.SelfTime[k]/total)
			}
		}
	}
	if o.traced {
		fmt.Fprintln(w, "per-layer metrics:")
		for _, m := range perLayer {
			if v, ok := set.Layers[m.name]; ok {
				fmt.Fprintf(w, "  %-44s %14.4f %s\n", m.name, v, m.unit)
			}
		}
	}
}

// unitOf returns a per-layer metric's unit.
func unitOf(name string) string {
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult writes the result line: the last line of standard output.
// Untraced, it holds every end-to-end metric's median over the runs, with
// keys suffixed ".<workload>" when several workloads ran; traced, every
// per-layer metric. A metric that could not be measured makes the result
// incorrect.
func printResult(w io.Writer, o options, set *runSet) {
	res := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Metrics: map[string]metricValue{}}
	for _, name := range sortedKeys(set.Workloads) {
		wr := set.Workloads[name]
		res.Attempted += wr.Attempted
		res.Failed += wr.Failed
		for _, m := range endToEnd {
			if s, ok := wr.Metrics[m.name]; ok && !o.traced {
				key := m.name
				if len(o.workloads) > 1 {
					key += "." + name
				}
				res.Metrics[key] = metricValue{s.Median, m.unit}
			}
		}
	}
	if o.traced {
		for _, m := range perLayer {
			if v, ok := set.Layers[m.name]; ok {
				res.Metrics[m.name] = metricValue{v, m.unit}
			}
		}
	}
	for k, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			delete(res.Metrics, k)
		}
	}
	want := len(perLayer)
	if !o.traced {
		want = len(endToEnd) * len(o.workloads)
	}
	missing := want - len(res.Metrics)
	res.Attempted = max(res.Attempted, 1)
	res.Correct = res.Failed == 0 && missing == 0
	// Plain numbers and strings, infinities and NaN removed: cannot fail.
	line, _ := json.Marshal(res)
	fmt.Fprintln(w, string(line))
}

// hostProvenance describes the measuring host for a ledger entry.
func hostProvenance(o options) provenance {
	return provenance{
		Commit:     buildCommit(),
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Date:       time.Now().UTC().Format(time.RFC3339),
		Seed:       o.seed,
		Seconds:    o.seconds,
		Traced:     o.traced,
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
