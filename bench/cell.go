package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"

	"graphpim/internal/graph"
	"graphpim/internal/workloads"
)

// childEnv marks a process as a child run: the parent re-executes its own
// binary with this variable set, so every timed run gets a fresh heap,
// fresh memo state and its own peak RSS.
const childEnv = "GRAPHPIM_BENCH_CHILD"

// layersName is the child that times each layer alone (layers.go). It
// runs only in the traced pass and is not a workload of the benchmark.
const layersName = "layers"

// scale fixes the input sizes of every workload.
type scale struct {
	quick  int   // eval-quick: LDBC vertices of the quick environment
	sweep  []int // eval-quick: Fig. 14 sweep sizes
	app    int   // eval-quick: FD/RS application graph size
	replay int   // replay-bfs, gnn-substrates and the layer pass
	stream int   // stream-bfs
}

var (
	fullScale  = scale{quick: 2048, sweep: []int{512, 2048}, app: 2048, replay: 16384, stream: 131072}
	smokeScale = scale{quick: 512, sweep: []int{512}, app: 512, replay: 512, stream: 512}
)

// childResult is what one child run reports to the parent, as one JSON
// object on its standard output.
type childResult struct {
	Workload string `json:"workload"`
	// SetupS and WallS are host seconds: each set-up repetition, and the
	// timed part without its host-speed probes. RefSetupS and RefWallS are
	// the same times at reference speed (see refLoop).
	SetupS    []float64          `json:"setup_s"`
	WallS     float64            `json:"wall_s"`
	RefSetupS []float64          `json:"ref_setup_s"`
	RefWallS  float64            `json:"ref_wall_s"`
	Instrs    uint64             `json:"instrs"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Model     map[string]float64 `json:"model,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Spans     []span             `json:"spans,omitempty"`
	// PeakRSSMB is filled in by the parent from the child's rusage.
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

// cell is one child run of a workload: its setup, its timed part, and the
// checks on what the timed part produced. A failure anywhere is recorded
// as a failed operation; the steps after a failed setup or timed part are
// skipped, and the run still reports.
type cell struct {
	sc        scale
	seed      uint64
	tr        *tracer // nil when untraced
	setupReps int
	setupOnly bool
	broken    bool
	res       childResult
	// lastProbe is the latest host-speed probe, in seconds; segStart is
	// when the timed part's current segment began.
	lastProbe float64
	segStart  time.Time
}

func newCell(name string, sc scale, seed uint64) *cell {
	return &cell{sc: sc, seed: seed, setupReps: 1, res: childResult{
		Workload: name,
		Model:    map[string]float64{},
		Layers:   map[string]float64{},
	}}
}

// span runs fn inside a trace span when the run is traced.
func (c *cell) span(name string, fn func()) { c.tr.do(name, fn) }

// fail records one failed check or operation.
func (c *cell) fail(what string, err any) {
	c.res.Failed++
	c.res.Failures = append(c.res.Failures, fmt.Sprintf("%s: %v", what, err))
}

// guard runs fn, turning a returned error or a panic into a failure.
func (c *cell) guard(what string, fn func() error) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			c.fail(what, fmt.Sprintf("panic: %v", r))
			ok = false
		}
	}()
	if err := fn(); err != nil {
		c.fail(what, err)
		return false
	}
	return true
}

// setup builds the run's inputs setupReps times (once for the warm-up)
// and records each duration; the last repetition's inputs are used.
func (c *cell) setup(fn func() error) {
	reps := c.setupReps
	if c.setupOnly {
		reps = 1
	}
	for i := 0; i < reps && !c.broken; i++ {
		start := time.Now()
		c.broken = !c.guard("setup", func() (err error) {
			c.span("setup", func() { err = fn() })
			return err
		})
		c.res.SetupS = append(c.res.SetupS, time.Since(start).Seconds())
	}
	if c.setupOnly {
		c.broken = true
	}
}

// goSample reads the runtime counters the traced run reports per workload.
func goSample() (gcCPU, allocBytes float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), float64(s[1].Value.Uint64())
}

// timed runs the measured part once, recording its wall time and, for a
// traced run, the Go runtime's GC share and allocation volume. A
// collection before the part starts it from the same heap every run:
// the inputs, without the setup's garbage. The runtime's CPU classes
// advance only at collections, so a traced run also collects after the
// part, outside the wall time; the share then includes collecting what
// the part allocated, over the CPU time GOMAXPROCS offers during it.
//
// The set-up is scaled to reference speed by the probes on either side
// of it, and the timed part segment by segment (lap).
func (c *cell) timed(fn func() error) {
	if c.broken {
		return
	}
	runtime.GC()
	p := probe()
	for _, s := range c.res.SetupS {
		c.res.RefSetupS = append(c.res.RefSetupS, s*2*refNominal/(c.lastProbe+p))
	}
	c.lastProbe = p
	gc0, alloc0 := goSample()
	c.segStart = time.Now()
	c.broken = !c.guard("timed", func() (err error) {
		c.span("timed", func() { err = fn() })
		return err
	})
	c.endSegment()
	if c.tr != nil {
		runtime.GC()
		gc1, alloc1 := goSample()
		c.res.Layers["go.gc_cpu_frac."+c.res.Workload] = (gc1 - gc0) / (float64(runtime.GOMAXPROCS(0)) * c.res.WallS)
		c.res.Layers["go.alloc_mb."+c.res.Workload] = (alloc1 - alloc0) / 1e6
	}
}

// minSegment is the shortest stretch of a timed part that gets a probe
// of its own. A shorter one, such as an experiment whose cells were all
// simulated before, runs on into the next segment.
const minSegment = 250 * time.Millisecond

// lap marks a point between two steps of a timed part. Workloads lap
// between their steps, so that drift during a long part is tracked.
func (c *cell) lap() {
	if time.Since(c.segStart) >= minSegment {
		c.endSegment()
	}
}

// endSegment ends the timed part's current segment with a host-speed
// probe and starts the next one. The segment counts at reference speed by
// the mean of the probes at its two ends; the probe is not part of the
// wall time.
func (c *cell) endSegment() {
	d := time.Since(c.segStart).Seconds()
	var p float64
	c.span("bench.probe", func() { p = probe() })
	c.res.WallS += d
	c.res.RefWallS += d * 2 * refNominal / (c.lastProbe + p)
	c.lastProbe = p
	c.segStart = time.Now()
}

// The host's speed drifts by up to a third over minutes on a shared
// machine: other tenants' load changes how fast its cores run. A fixed
// reference loop timed beside the work tracks that drift, so every time
// the benchmark reports is scaled to a host on which the loop takes
// refNominal. The loop touches no memory and branches on random bits, as
// the simulator's dispatch code does; a memory-bound loop tracked the
// drift less well.
const (
	refIters   = 3_200_000
	refNominal = 0.020 // seconds; about the loop's time on a 2.1 GHz Xeon
	probeReps  = 3
)

// refSink keeps the reference loop's result alive.
var refSink uint64

// refLoop is the reference work. It must never change: its time is the
// unit every reported time is scaled by.
func refLoop() {
	x, acc := uint64(88172645463325252), uint64(0)
	for range refIters {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		switch x & 3 {
		case 0:
			acc += x >> 3
		case 1:
			acc ^= x
		default:
			acc -= x >> 7
		}
	}
	refSink += acc
}

// probe returns the median time of probeReps runs of the reference loop.
func probe() float64 {
	xs := make([]float64, probeReps)
	for i := range xs {
		start := time.Now()
		refLoop()
		xs[i] = time.Since(start).Seconds()
	}
	_, med, _ := quartiles(xs)
	return med
}

// check runs one correctness check unless an earlier step failed.
func (c *cell) check(what string, fn func() error) {
	if !c.broken {
		c.guard(what, fn)
	}
}

// runChild is the entry point of a child process: it runs one workload
// (or the layer pass) and writes its childResult to out.
func runChild(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 7, "generator seed")
	smoke := fs.Bool("smoke", false, "smoke-test input sizes")
	traced := fs.Bool("traced", false, "record spans and per-layer metrics")
	setupOnly := fs.Bool("setup-only", false, "run the setup only (the warm-up run)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sc := fullScale
	if *smoke {
		sc = smokeScale
	}
	c := newCell(*name, sc, *seed)
	c.setupOnly = *setupOnly
	if *traced {
		c.tr = newTracer()
	}
	if *name == layersName {
		layerPass(c)
	} else if w, ok := lookupWorkload(*name); ok {
		c.setupReps = w.setupReps
		c.lastProbe = probe()
		w.run(c)
	} else {
		c.fail("workload", fmt.Sprintf("unknown workload %q", *name))
	}
	c.res.Attempted = max(c.res.Attempted, 1)
	if c.tr != nil {
		c.res.Spans = c.tr.spans
	}
	if err := json.NewEncoder(out).Encode(&c.res); err != nil {
		return 1
	}
	return 0
}

// refBFS is the benchmark's own breadth-first search: plain Go over the
// raw generator edges, sharing no code with the graph builder, the graph
// framework or the workloads. Duplicate edges and self-loops, which the
// builder removes, do not change BFS depths.
func refBFS(s graph.EdgeStream, root graph.VID) ([]uint64, error) {
	n := s.NumVertices()
	off := make([]int, n+1)
	var bad error
	err := s.Edges(func(src, dst graph.VID, _ uint32) bool {
		if int(src) >= n || int(dst) >= n {
			bad = fmt.Errorf("edge (%d,%d) outside [0,%d)", src, dst, n)
			return false
		}
		off[src+1]++
		return true
	})
	if err == nil {
		err = bad
	}
	if err != nil {
		return nil, err
	}
	for v := 1; v <= n; v++ {
		off[v] += off[v-1]
	}
	adj := make([]graph.VID, off[n])
	next := slices.Clone(off[:n])
	if err := s.Edges(func(src, dst graph.VID, _ uint32) bool {
		adj[next[src]] = dst
		next[src]++
		return true
	}); err != nil {
		return nil, err
	}
	depth := make([]uint64, n)
	for i := range depth {
		depth[i] = workloads.Infinity
	}
	depth[root] = 0
	queue := []graph.VID{root}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[off[u]:off[u+1]] {
			if depth[v] == workloads.Infinity {
				depth[v] = depth[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return depth, nil
}

// checkDepths compares a BFS result against the reference depths.
func checkDepths(got, want []uint64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d depths, reference has %d", len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			return fmt.Errorf("vertex %d at depth %d, reference says %d", v, got[v], want[v])
		}
	}
	return nil
}

// checkCount compares one count against its expected value.
func checkCount(what string, got, want uint64) error {
	if got != want {
		return fmt.Errorf("%s is %d, want %d", what, got, want)
	}
	return nil
}

// modelDiff lists the model.* counts that differ between two runs.
func modelDiff(a, b map[string]float64) []string {
	var out []string
	for _, k := range sortedKeys(a) {
		if bv, ok := b[k]; !ok || bv != a[k] {
			out = append(out, fmt.Sprintf("%s: %v vs %v", k, a[k], b[k]))
		}
	}
	for _, k := range sortedKeys(b) {
		if _, ok := a[k]; !ok {
			out = append(out, fmt.Sprintf("%s: missing vs %v", k, b[k]))
		}
	}
	return out
}
