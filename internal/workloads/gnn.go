package workloads

import (
	"fmt"

	"graphpim/internal/gframe"
	"graphpim/internal/graph"
)

// This file is the PR-10 GNN/SpMV workload family: sparse-linear-algebra
// formulations of graph kernels whose scatter phases are dense in
// offloadable atomics. PyGim (SIGMETRICS'25) and GNNear (PACT'22) show
// these aggregation kernels want per-graph placement decisions — they
// are the inputs the placement autotuner (internal/tune) reasons about.

// ---------------------------------------------------------------------------
// Feature vectors

// FeatDims is the default feature-vector width of the GNN family.
const FeatDims = 4

// featHash derives the initial feature element for (vertex, dim):
// a splitmix64 finalizer masked to 32 bits so signed atomic adds never
// leave the positive int64 range while sums still wrap deterministically
// in uint64.
func featHash(v graph.VID, d int) uint64 {
	z := uint64(v)*uint64(FeatDims*16+1) + uint64(d) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return (z ^ (z >> 31)) & 0xFFFFFFFF
}

// allocFeatures allocates and initializes one property per feature
// dimension. Initialization is functional setup (no trace records),
// like Gibbs' state init.
func allocFeatures(f *gframe.Framework, prefix string, dims int, init bool) []*gframe.Property {
	n := f.Graph().NumVertices()
	ps := make([]*gframe.Property, dims)
	for d := 0; d < dims; d++ {
		ps[d] = f.AllocProperty(fmt.Sprintf("%s%d", prefix, d), 8)
		if init {
			for v := 0; v < n; v++ {
				ps[d].SetU64(graph.VID(v), featHash(graph.VID(v), d))
			}
		}
	}
	return ps
}

// snapshotDims snapshots a per-dimension property set into dims rows.
func snapshotDims(ps []*gframe.Property) [][]uint64 {
	out := make([][]uint64, len(ps))
	for d, p := range ps {
		out[d] = p.Snapshot()
	}
	return out
}

// GNNOutput is the functional result of the aggregation kernels: one row
// of n elements per feature dimension.
type GNNOutput struct {
	Feat [][]uint64
}

// ---------------------------------------------------------------------------
// SpMV-formulated PageRank

// SpMV is PageRank formulated as repeated sparse matrix-vector products
// y = A^T (D^-1 r): an explicit scale pass builds the normalized input
// vector x, the scatter pass streams the CSR nonzeros accumulating
// x[row] into y[col] with FP atomic adds, and a combine pass applies
// the damping factor. The scatter is a pure SpMV nonzero stream — the
// densest FP-atomic pattern in the suite.
type SpMV struct {
	iterations int
}

// NewSpMV returns an SpMV PageRank running the given iterations.
func NewSpMV(iterations int) *SpMV { return &SpMV{iterations: iterations} }

// Info implements Workload.
func (*SpMV) Info() Info {
	return Info{
		Name: "SpMV", Full: "SpMV page rank", Category: SparseLinear,
		NeedsFPExtension: true,
		MissingOp:        "Floating point add",
		OffloadTarget:    "fp-add block", PIMAtomic: "FP add (ext)",
	}
}

// SpMVOutput is the functional result: rank per vertex.
type SpMVOutput struct {
	Rank []float64
}

// Run implements Workload.
func (w *SpMV) Run(f *gframe.Framework) Result {
	g := f.Graph()
	n := g.NumVertices()
	rank := f.AllocProperty("spmv.rank", 8)
	x := f.AllocProperty("spmv.x", 8)
	y := f.AllocProperty("spmv.y", 8)
	rank.FillF64(1 / float64(n))

	var edges uint64
	ranges := gframe.BalancedRanges(g, f.NumThreads())
	for it := 0; it < w.iterations; it++ {
		y.FillF64(0)
		// Scale: x = D^-1 r, the SpMV input vector. Vertex-local.
		for t := 0; t < f.NumThreads(); t++ {
			c := f.Thread(t)
			for v := ranges[t][0]; v < ranges[t][1]; v++ {
				u := graph.VID(v)
				deg := c.BeginVertex(u)
				r := c.LoadF64(rank, u, false)
				c.DependentCompute(1)
				if deg > 0 {
					r /= float64(deg)
				}
				c.StoreF64(x, u, r)
			}
		}
		f.Barrier()
		// Scatter: the SpMV proper — stream every nonzero of A^T,
		// accumulating into y with FP atomics.
		for t := 0; t < f.NumThreads(); t++ {
			c := f.Thread(t)
			for v := ranges[t][0]; v < ranges[t][1]; v++ {
				u := graph.VID(v)
				if c.BeginVertex(u) == 0 {
					continue
				}
				xv := c.LoadF64(x, u, false)
				c.OutEdges(u, func(nb graph.VID, _ uint32) {
					edges++
					c.AtomicAddF64(y, nb, xv)
				})
			}
		}
		f.Barrier()
		// Combine: r = (1-d)/n + d*y. Vertex-local.
		for t := 0; t < f.NumThreads(); t++ {
			c := f.Thread(t)
			for v := ranges[t][0]; v < ranges[t][1]; v++ {
				u := graph.VID(v)
				yv := c.LoadF64(y, u, false)
				c.DependentCompute(3)
				c.StoreF64(rank, u, (1-Damping)/float64(n)+Damping*yv)
			}
		}
		f.Barrier()
	}
	return Result{Output: SpMVOutput{Rank: snapshotF64(rank, n)}, EdgesVisited: edges}
}

// ---------------------------------------------------------------------------
// GNN mean aggregation

// GNNMean is one GNN layer's mean neighbor-feature aggregation: every
// vertex scatters its feature vector to its out-neighbors with integer
// atomic adds (one per dimension — the multi-element scatter), then a
// vertex-local pass divides by in-degree. Integer features keep the
// sums associative, so the result is thread-count independent.
type GNNMean struct {
	dims int
}

// NewGNNMean returns a mean-aggregation layer with the given feature
// width.
func NewGNNMean(dims int) *GNNMean { return &GNNMean{dims: dims} }

// Info implements Workload.
func (*GNNMean) Info() Info {
	return Info{
		Name: "GNNMean", Full: "GNN mean aggregation", Category: SparseLinear,
		Applicable:    true,
		OffloadTarget: "lock add", PIMAtomic: "Signed add",
	}
}

// Run implements Workload.
func (w *GNNMean) Run(f *gframe.Framework) Result {
	g := f.Graph()
	feat := allocFeatures(f, "gnn.feat", w.dims, true)
	agg := allocFeatures(f, "gnn.sum", w.dims, false)

	var edges uint64
	ranges := gframe.BalancedRanges(g, f.NumThreads())
	fv := make([]uint64, w.dims)
	for t := 0; t < f.NumThreads(); t++ {
		c := f.Thread(t)
		for v := ranges[t][0]; v < ranges[t][1]; v++ {
			u := graph.VID(v)
			if c.BeginVertex(u) == 0 {
				continue
			}
			for d := 0; d < w.dims; d++ {
				fv[d] = c.LoadU64(feat[d], u, false)
			}
			c.OutEdges(u, func(nb graph.VID, _ uint32) {
				edges++
				for d := 0; d < w.dims; d++ {
					c.AtomicAdd(agg[d], nb, int64(fv[d]))
				}
			})
		}
	}
	f.Barrier()
	// Divide by in-degree: vertex-local, no atomics.
	for t := 0; t < f.NumThreads(); t++ {
		c := f.Thread(t)
		for v := ranges[t][0]; v < ranges[t][1]; v++ {
			u := graph.VID(v)
			indeg := uint64(g.InDegree(u))
			if indeg == 0 {
				continue
			}
			for d := 0; d < w.dims; d++ {
				s := c.LoadU64(agg[d], u, false)
				c.DependentCompute(1)
				c.StoreU64(agg[d], u, s/indeg)
			}
		}
	}
	f.Barrier()
	return Result{Output: GNNOutput{Feat: snapshotDims(agg)}, EdgesVisited: edges}
}

// ---------------------------------------------------------------------------
// GNN max-pooling aggregation

// GNNMax is the max-pooling variant: the scatter raises each
// out-neighbor's aggregate with CAS-if-greater atomics (the AtomicMax
// block, HMC CASGT16). Max is idempotent and commutative, so the result
// is thread-count independent by construction.
type GNNMax struct {
	dims int
}

// NewGNNMax returns a max-pooling layer with the given feature width.
func NewGNNMax(dims int) *GNNMax { return &GNNMax{dims: dims} }

// Info implements Workload.
func (*GNNMax) Info() Info {
	return Info{
		Name: "GNNMax", Full: "GNN max aggregation", Category: SparseLinear,
		Applicable:    true,
		OffloadTarget: "cas-max block", PIMAtomic: "CAS-if-greater",
	}
}

// Run implements Workload.
func (w *GNNMax) Run(f *gframe.Framework) Result {
	g := f.Graph()
	feat := allocFeatures(f, "gnn.feat", w.dims, true)
	agg := allocFeatures(f, "gnn.max", w.dims, false)

	var edges uint64
	ranges := gframe.BalancedRanges(g, f.NumThreads())
	fv := make([]uint64, w.dims)
	for t := 0; t < f.NumThreads(); t++ {
		c := f.Thread(t)
		for v := ranges[t][0]; v < ranges[t][1]; v++ {
			u := graph.VID(v)
			if c.BeginVertex(u) == 0 {
				continue
			}
			for d := 0; d < w.dims; d++ {
				fv[d] = c.LoadU64(feat[d], u, false)
			}
			c.OutEdges(u, func(nb graph.VID, _ uint32) {
				edges++
				for d := 0; d < w.dims; d++ {
					c.AtomicMax(agg[d], nb, fv[d])
				}
			})
		}
	}
	f.Barrier()
	return Result{Output: GNNOutput{Feat: snapshotDims(agg)}, EdgesVisited: edges}
}

// ---------------------------------------------------------------------------
// Feature-vector triangle count

// TCFeat is triangle counting enriched with feature aggregation: the
// sorted-adjacency intersection of TC, but each discovered triangle
// also accumulates the third corner's feature vector into the anchor
// vertex — turning TC's single count update into a multi-element
// atomic scatter (a triangle-motif feature embedding).
type TCFeat struct {
	dims int
}

// NewTCFeat returns a feature triangle count with the given feature
// width.
func NewTCFeat(dims int) *TCFeat { return &TCFeat{dims: dims} }

// Info implements Workload.
func (*TCFeat) Info() Info {
	return Info{
		Name: "TCFeat", Full: "Feature triangle count", Category: SparseLinear,
		Applicable:    true,
		OffloadTarget: "lock add", PIMAtomic: "Signed add",
	}
}

// TCFeatOutput is the functional result: per-vertex triangle-feature
// embedding plus the total triangle-corner count (matching TC's Total).
type TCFeatOutput struct {
	Feat  [][]uint64
	Total uint64
}

// Run implements Workload.
func (w *TCFeat) Run(f *gframe.Framework) Result {
	g := f.Graph()
	acc := allocFeatures(f, "tcf.acc", w.dims, false)
	count := f.AllocProperty("tcf.count", 8)

	var edges, total uint64
	ranges := gframe.BalancedRanges(g, f.NumThreads())
	sum := make([]uint64, w.dims)
	for t := 0; t < f.NumThreads(); t++ {
		c := f.Thread(t)
		for v := ranges[t][0]; v < ranges[t][1]; v++ {
			u := graph.VID(v)
			c.BeginVertex(u)
			nbrU := g.OutNeighbors(u)
			c.OutEdges(u, func(x graph.VID, _ uint32) {
				edges++
				if x <= u {
					return
				}
				nbrX := g.OutNeighbors(x)
				c.BeginVertex(x)
				found := uint64(0)
				for d := range sum {
					sum[d] = 0
				}
				i, j := 0, 0
				for i < len(nbrU) && j < len(nbrX) {
					switch {
					case nbrU[i] == nbrX[j]:
						if nbrU[i] > x {
							found++
							for d := 0; d < w.dims; d++ {
								sum[d] += featHash(nbrU[i], d)
							}
						}
						i++
						j++
					case nbrU[i] < nbrX[j]:
						i++
					default:
						j++
					}
				}
				c.ScanStructure(uint64(u)*13+uint64(x), (i+j)/8+1)
				c.Compute(2 * (i + j))
				if found > 0 {
					c.AtomicAdd(count, u, int64(found))
					for d := 0; d < w.dims; d++ {
						c.AtomicAdd(acc[d], u, int64(sum[d]))
					}
					total += found
				}
			})
		}
	}
	f.Barrier()
	return Result{Output: TCFeatOutput{Feat: snapshotDims(acc), Total: total}, EdgesVisited: edges}
}
