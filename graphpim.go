// Package graphpim is a full-stack reproduction of "GraphPIM: Enabling
// Instruction-Level PIM Offloading in Graph Computing Frameworks"
// (HPCA 2017): a cycle-level simulation of a 16-core host with a Hybrid
// Memory Cube, a GraphBIG-style graph computing framework whose workloads
// run functionally while driving the timing model, and the GraphPIM
// mechanism itself — atomic instructions to the PIM memory region bypass
// the cache hierarchy and execute as HMC 2.0 atomic commands in the
// memory cube's logic layer.
//
// The package is a facade over the internal implementation. A minimal
// session:
//
//	g := graphpim.GenerateLDBC(16384, 7)
//	run := graphpim.NewRun(g, graphpim.DefaultOptions())
//	res := run.Execute(graphpim.NewBFS(0), graphpim.ConfigGraphPIM)
//	fmt.Println(res.Speedup(run.Execute(graphpim.NewBFS(0), graphpim.ConfigBaseline)))
//
// The harness sub-API reproduces every table and figure of the paper's
// evaluation; see Experiments and RunExperiment.
package graphpim

import (
	"context"
	"fmt"
	"strings"

	"graphpim/internal/analytic"
	"graphpim/internal/energy"
	"graphpim/internal/graph"
	"graphpim/internal/harness"
	"graphpim/internal/machine"
	"graphpim/internal/mem/backends"
	"graphpim/internal/workloads"
)

// Re-exported core types. Aliases keep the public API importable without
// reaching into internal packages.
type (
	// Graph is an immutable CSR property graph.
	Graph = graph.Graph
	// VID is a vertex identifier.
	VID = graph.VID
	// Workload is one benchmark of the GraphBIG suite.
	Workload = workloads.Workload
	// WorkloadInfo describes a workload's category and offloadability.
	WorkloadInfo = workloads.Info
	// Result is one simulation outcome.
	Result = machine.Result
	// MachineConfig is a complete simulated-system configuration.
	MachineConfig = machine.Config
	// Experiment reproduces one paper table or figure.
	Experiment = harness.Experiment
	// Table is an experiment's rendered output.
	Table = harness.Table
	// Env is the experiment environment (scale, caching).
	Env = harness.Env
	// EdgeStream is a deterministic, re-runnable edge source; the
	// streaming two-pass builder consumes one twice (degree counting,
	// then scatter) so no edge list is ever materialized.
	EdgeStream = graph.EdgeStream
)

// Workload functional-output types (returned by Run.ExecuteFull).
type (
	// BFSOutput holds per-vertex depths.
	BFSOutput = workloads.BFSOutput
	// SSSPOutput holds per-vertex distances.
	SSSPOutput = workloads.SSSPOutput
	// DCOutput holds per-vertex degree centralities.
	DCOutput = workloads.DCOutput
	// CCompOutput holds per-vertex component labels.
	CCompOutput = workloads.CCompOutput
	// PRankOutput holds per-vertex PageRank values.
	PRankOutput = workloads.PRankOutput
	// KCoreOutput holds per-vertex core numbers.
	KCoreOutput = workloads.KCoreOutput
	// TCOutput holds triangle counts.
	TCOutput = workloads.TCOutput
	// BCOutput holds per-vertex betweenness centralities.
	BCOutput = workloads.BCOutput
	// FDOutput holds flagged accounts and component labels.
	FDOutput = workloads.FDOutput
	// RSOutput holds item similarities and top recommendations.
	RSOutput = workloads.RSOutput
	// SpMVOutput holds the SpMV-formulated PageRank vector.
	SpMVOutput = workloads.SpMVOutput
	// GNNOutput holds aggregated per-vertex feature vectors (GNN
	// mean/max neighbor aggregation).
	GNNOutput = workloads.GNNOutput
	// TCFeatOutput holds triangle counts plus corner-feature sums.
	TCFeatOutput = workloads.TCFeatOutput
)

// Config selects one of the paper's three system configurations.
type Config string

// The evaluated system configurations.
const (
	ConfigBaseline Config = "baseline"
	ConfigUPEI     Config = "upei"
	ConfigGraphPIM Config = "graphpim"
)

// Graph generators.
var (
	// GenerateLDBC builds the LDBC-like scale-free graph family
	// (Table VI): ~29 edges per vertex, heavy-tailed degrees.
	GenerateLDBC = graph.LDBC
	// GenerateBitcoinLike builds the transaction graph used by the
	// fraud-detection application.
	GenerateBitcoinLike = graph.BitcoinLike
	// GenerateTwitterLike builds the follower graph used by the
	// recommender application.
	GenerateTwitterLike = graph.TwitterLike
	// GenerateRMAT and GenerateErdosRenyi are general-purpose
	// generators.
	GenerateRMAT       = graph.RMAT
	GenerateErdosRenyi = graph.ErdosRenyi
	// LoadEdgeList reads a graph from SNAP-style edge-list text;
	// SaveEdgeList writes one.
	LoadEdgeList = graph.ReadEdgeList
	SaveEdgeList = graph.WriteEdgeList
)

// Streaming graph construction (DESIGN.md §14). Stream* constructors
// return the generators' EdgeStream form; BuildGraphStream runs the
// two-pass builder, whose peak memory is the final CSR itself — byte-
// identical to the materialized Generate* path. StreamEdgeList wraps
// edge-list text (re-seeking each pass when the reader is seekable);
// SaveEdgeListStream serializes a stream without ever building a graph.
var (
	StreamLDBC         = graph.LDBCStream
	StreamBitcoinLike  = graph.BitcoinLikeStream
	StreamTwitterLike  = graph.TwitterLikeStream
	StreamRMAT         = graph.RMATStream
	StreamErdosRenyi   = graph.ErdosRenyiStream
	StreamEdgeList     = graph.NewEdgeListStream
	BuildGraphStream   = graph.BuildStream
	SaveEdgeListStream = graph.WriteEdgeListStream
)

// Workload constructors (the GraphBIG suite of Table III).
var (
	NewBFS            = workloads.NewBFS
	NewDFS            = workloads.NewDFS
	NewDC             = workloads.NewDC
	NewBC             = workloads.NewBC
	NewSSSP           = workloads.NewSSSP
	NewKCore          = workloads.NewKCore
	NewCComp          = workloads.NewCComp
	NewPRank          = workloads.NewPRank
	NewTC             = workloads.NewTC
	NewGibbs          = workloads.NewGibbs
	NewGCons          = workloads.NewGCons
	NewGUp            = workloads.NewGUp
	NewTMorph         = workloads.NewTMorph
	NewFraudDetection = workloads.NewFraudDetection
	NewRecommender    = workloads.NewRecommender
	// GNN/SpMV family (DESIGN.md §16): SpMV-formulated PageRank, GNN
	// mean/max neighbor-feature aggregation over FeatDims-wide vectors,
	// and feature-vector triangle counting.
	NewSpMV    = workloads.NewSpMV
	NewGNNMean = workloads.NewGNNMean
	NewGNNMax  = workloads.NewGNNMax
	NewTCFeat  = workloads.NewTCFeat
	// AllWorkloads returns the Table III suite; GNNWorkloads the
	// GNN/SpMV family; RegistryWorkloads both; EvalWorkloads the eight
	// of the evaluation figures; WorkloadByName looks one up across the
	// whole registry.
	AllWorkloads      = workloads.All
	GNNWorkloads      = workloads.GNNSet
	RegistryWorkloads = workloads.Registry
	EvalWorkloads     = workloads.EvalSet
	WorkloadByName    = workloads.ByName
)

// Options configures a Run.
type Options struct {
	// Threads is the logical thread count (one simulated core each,
	// max 16).
	Threads int
	// ScaledCaches shrinks L2/L3 to match scaled datasets; see
	// DESIGN.md. When false, the full Table IV hierarchy is used. The
	// facade scales as the default experiment environment does (128 KB
	// L2, 512 KB L3) at every graph size, whereas `run -quick` uses a
	// 128 KB L3 for its graphs of 4096 vertices or fewer.
	ScaledCaches bool
	// Check enables the simulation sanitizer: periodic and end-of-run
	// audits of the machine's internal invariants. Audits are read-only
	// (results are identical either way); a violation panics with
	// subsystem/cycle/core context.
	Check bool
	// Memory selects the main-memory backend kind: "" or "hmc" for the
	// paper's HMC cube, or any other kind in the backend list — "ddr" (a
	// conventional DDR4-style host memory with no PIM units), "lpddr"
	// (mobile LPDDR5X-PIM with bank-group MAC units), "vault"
	// (UPMEM-style per-vault scalar cores). Capability negotiation keeps
	// every combination safe: on the PIM-less "ddr" backend the offload
	// configurations degrade gracefully to the conventional datapath, so
	// ConfigGraphPIM behaves exactly like ConfigBaseline.
	Memory string
	// Policy overrides Execute's Config argument with a placement
	// policy whenever that argument is not ConfigBaseline (the baseline
	// stays the speedup denominator, mirroring the harness rule):
	// "host"/"pim"/"upei" pin the corresponding static configuration,
	// and "auto" profiles the built graph and trace with internal/tune —
	// degree skew, property footprint vs LLC, atomic density — and runs
	// whichever placement the tuner picks. The decision's features land
	// in Result.Stats as tune.* counters and its name in Result.Config
	// ("Auto(GraphPIM)" etc.). "" (the default) keeps the Config
	// argument.
	Policy string
}

// Validate reports an out-of-range option. NewRun panics on invalid
// options; callers that want an error (e.g. the CLI, to exit with a
// usage message) validate first.
func (o Options) Validate() error {
	if o.Threads <= 0 || o.Threads > 16 {
		return fmt.Errorf("graphpim: thread count %d outside [1,16]", o.Threads)
	}
	if o.Memory != "" {
		if _, ok := backends.DefaultConfig(o.Memory); !ok {
			return fmt.Errorf("graphpim: unknown memory backend %q (valid: %s)",
				o.Memory, strings.Join(backends.Kinds(), ", "))
		}
	}
	switch o.Policy {
	case "", "auto", "host", "pim", "upei":
	default:
		return fmt.Errorf("graphpim: unknown placement policy %q (valid: auto, host, pim, upei)", o.Policy)
	}
	return nil
}

// DefaultOptions returns 16 threads with scaled caches.
func DefaultOptions() Options {
	return Options{Threads: 16, ScaledCaches: true}
}

// Run binds a graph to the framework so workloads can be simulated under
// the different system configurations. Each Execute generates the
// workload's trace functionally (verifying semantics end to end) and
// replays it on a freshly assembled machine, resolved exactly as the
// experiment harness resolves a cell of the default environment. The
// trace spills to an unlinked file in os.TempDir() (DESIGN.md §13) and
// is released when Execute returns.
type Run struct {
	g   *Graph
	env *harness.Env
}

// NewRun prepares a simulation run over g.
func NewRun(g *Graph, opts Options) *Run {
	if err := opts.Validate(); err != nil {
		panic(err.Error())
	}
	env := harness.DefaultEnv()
	env.Threads = opts.Threads
	env.ScaledCaches = opts.ScaledCaches
	env.Check = opts.Check
	env.Memory = opts.Memory
	env.Policy = opts.Policy
	return &Run{g: g, env: env}
}

// configKinds maps the facade's configurations onto the harness's.
var configKinds = map[Config]harness.ConfigKind{
	ConfigBaseline: harness.KindBaseline,
	ConfigUPEI:     harness.KindUPEI,
	ConfigGraphPIM: harness.KindGraphPIM,
}

// Execute runs w under cfg and returns the timing result. The workload's
// functional output is discarded; use ExecuteFull to keep it.
func (r *Run) Execute(w Workload, cfg Config) Result {
	res, _ := r.ExecuteFull(w, cfg)
	return res
}

// ExecuteFull runs w under cfg and returns both the timing result and the
// workload's functional output (e.g. BFS depths, PageRank values).
func (r *Run) ExecuteFull(w Workload, cfg Config) (Result, any) {
	kind, ok := configKinds[cfg]
	if !ok {
		panic(fmt.Sprintf("graphpim: unknown config %q", cfg))
	}
	return r.env.Simulate(r.g, w, kind)
}

// Experiments returns every paper table/figure reproduction.
func Experiments() []Experiment { return harness.All() }

// ExtraExperiments returns reproductions of behaviours the paper
// discusses qualitatively (e.g. hybrid HMC+DRAM systems).
func ExtraExperiments() []Experiment { return harness.Extras() }

// ExperimentByID looks an experiment up (e.g. "fig7-speedup").
func ExperimentByID(id string) (Experiment, error) { return harness.ByID(id) }

// DefaultEnv returns the experiment environment used for the recorded
// results in EXPERIMENTS.md; QuickEnv a smaller one for fast iteration.
var (
	DefaultEnv = harness.DefaultEnv
	QuickEnv   = harness.QuickEnv
)

// Model types: the analytical CPI model of Section IV-B5 and the uncore
// energy model of Section IV-B4.
type (
	// ModelInputs are the measured quantities Eq. 1-2 consume.
	ModelInputs = analytic.Inputs
	// EnergyBreakdown is the Fig. 15 uncore energy split.
	EnergyBreakdown = energy.Breakdown
	// EnergyParams are the per-event energy coefficients.
	EnergyParams = energy.Params
)

// MeasureModel derives analytical-model inputs from a baseline result the
// way the paper reads hardware performance counters (Section IV-B5).
func MeasureModel(res Result) ModelInputs {
	return analytic.Measure(res, 16)
}

// ComputeEnergy evaluates the uncore energy model over one result.
// cacheMB is the total cache capacity in megabytes.
func ComputeEnergy(res Result, cacheMB float64) EnergyBreakdown {
	return energy.Compute(energy.DefaultParams(), res, cacheMB)
}

// RunExperiment executes one experiment against env (nil means a fresh
// DefaultEnv, closed before returning) and returns its table. A caller
// that passes env owns it and closes it when done (Env.Close). The run
// uses env.Parallelism workers to fan the experiment's simulation cells
// across goroutines; the table is byte-for-byte identical at any worker
// count.
func RunExperiment(id string, env *Env) (*Table, error) {
	ex, err := harness.ByID(id)
	if err != nil {
		return nil, err
	}
	if env == nil {
		env = harness.DefaultEnv()
		defer env.Close()
	}
	return env.RunExperiment(context.Background(), ex)
}
