// Package workloads implements the GraphBIG benchmark suite the paper
// evaluates (Table III): eight graph-traversal workloads, two
// rich-property workloads, three dynamic-graph workloads, and the two
// real-world applications of Section IV-B5 (financial fraud detection and
// an item-to-item recommender system).
//
// Every workload executes functionally against a gframe.Framework —
// producing real, verifiable results — while emitting the instruction
// trace that drives the timing model.
package workloads

import (
	"fmt"
	"strings"

	"graphpim/internal/gframe"
	"graphpim/internal/graph"
)

// Category classifies workloads per Section II-B.
type Category string

// Workload categories.
const (
	GraphTraversal Category = "Graph Traversal"
	RichProperty   Category = "Rich Property"
	DynamicGraph   Category = "Dynamic Graph"
	// SparseLinear is the GNN/SpMV aggregation family (beyond the
	// paper's suite): sparse-linear-algebra kernels with dense atomic
	// scatter phases.
	SparseLinear Category = "Sparse Linear Algebra"
)

// Info is the static description of one workload: its Table II offload
// target and Table III applicability.
type Info struct {
	// Name is the short name used in the paper's figures.
	Name string
	// Full is the descriptive name.
	Full string
	// Category per Section II-B.
	Category Category
	// Applicable with the base HMC 2.0 command set.
	Applicable bool
	// NeedsFPExtension marks workloads applicable only with the
	// proposed FP add/sub extension (BC, PRank).
	NeedsFPExtension bool
	// MissingOp is Table III's annotation for inapplicable workloads.
	MissingOp string
	// OffloadTarget is the host atomic instruction (Table II).
	OffloadTarget string
	// PIMAtomic is the HMC operation it maps to (Table II).
	PIMAtomic string
}

// Info returns i itself, so a bare description serves wherever a
// workload's Info is asked for (harness.Env.Config on a trace with no
// registered workload).
func (i Info) Info() Info { return i }

// ApplicableWith reports offloadability under a command set.
func (i Info) ApplicableWith(extended bool) bool {
	return i.Applicable || (extended && i.NeedsFPExtension)
}

// Result is what a workload run produces: a functional output (checked by
// tests) plus counts the harness reports.
type Result struct {
	// Output is the workload-specific functional result.
	Output any
	// EdgesVisited counts edge traversals performed.
	EdgesVisited uint64
}

// Workload is one benchmark.
type Workload interface {
	Info() Info
	// Run executes the workload functionally over f's graph, emitting
	// its trace into f.
	Run(f *gframe.Framework) Result
}

// All returns the full GraphBIG suite in the paper's Table III order.
func All() []Workload {
	return []Workload{
		NewBFS(0),
		NewDFS(),
		NewDC(),
		NewBC(4),
		NewSSSP(0),
		NewKCore(3),
		NewCComp(),
		NewPRank(3),
		NewGCons(),
		NewGUp(),
		NewTMorph(),
		NewTC(),
		NewGibbs(2),
	}
}

// EvalSet returns the eight workloads of the evaluation figures (Fig. 7,
// 9-15): BFS, CComp, DC, kCore, SSSP, TC, BC, PRank.
func EvalSet() []Workload {
	return []Workload{
		NewBFS(0),
		NewCComp(),
		NewDC(),
		NewKCore(3),
		NewSSSP(0),
		NewTC(),
		NewBC(4),
		NewPRank(3),
	}
}

// GNNSet returns the GNN/SpMV aggregation family: the kernels whose
// dense-atomic scatter phases the placement autotuner (internal/tune)
// reasons about. Kept out of All() so the Table III suite stays exactly
// the paper's thirteen workloads.
func GNNSet() []Workload {
	return []Workload{
		NewSpMV(3),
		NewGNNMean(FeatDims),
		NewGNNMax(FeatDims),
		NewTCFeat(FeatDims),
	}
}

// Registry returns every constructible workload in registry order: the
// Table III suite followed by the GNN/SpMV family. This is the set
// ByName resolves against.
func Registry() []Workload {
	return append(All(), GNNSet()...)
}

// ByName looks a workload up by its short name. An unknown name returns
// an error listing the valid names in registry order.
func ByName(name string) (Workload, error) {
	reg := Registry()
	for _, w := range reg {
		if w.Info().Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("workloads: unknown workload %q (valid: %s)",
		name, strings.Join(Names(reg), ", "))
}

// Names returns the short names of ws.
func Names(ws []Workload) []string {
	out := make([]string, len(ws))
	for i, w := range ws {
		out[i] = w.Info().Name
	}
	return out
}

// Infinity is the sentinel for unreached distances/depths.
const Infinity = ^uint64(0)

// perThreadFrontiers distributes a work list into per-thread queues,
// balancing by out-degree the way framework task schedulers do.
func perThreadFrontiers(g *graph.Graph, vs []graph.VID, threads int) [][]graph.VID {
	return gframe.BalanceFrontier(g, vs, threads)
}

// rebalance flattens per-thread discovery queues and redistributes them
// degree-balanced for the next superstep.
func rebalance(f *gframe.Framework, queues [][]graph.VID) [][]graph.VID {
	var flat []graph.VID
	for _, q := range queues {
		flat = append(flat, q...)
	}
	return perThreadFrontiers(f.Graph(), flat, f.NumThreads())
}
