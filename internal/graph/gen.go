package graph

import (
	"fmt"
	"math"

	"graphpim/internal/sim"
)

// The generators below stand in for the paper's input datasets. Each is
// deterministic for a given seed so that traces — and therefore simulation
// results — are exactly reproducible. Every generator is an EdgeStream:
// Edges re-seeds its PRNG on each call, so BuildStream's two passes see
// the identical edge sequence, and generation state is O(1) — the only
// O(V+E) memory a build touches is the final CSR itself. The R-MAT and
// Erdős–Rényi streams draw a fixed number of PRNG values per edge, so
// they split into parts that each jump the PRNG (sim.Rand.Skip) to
// their first edge; the preferential-attachment streams cannot.

// rmatNoiseSalt separates the per-level noise PRNG from the edge PRNG so
// the noise is a fixed function of the seed, not of how many edges have
// been drawn.
const rmatNoiseSalt = 0x5eed4f0b1a7e55ed

// endpointReservoir is the slot count of endpointSample, the bounded
// endpoint pool the preferential-attachment generators draw from.
const endpointReservoir = 1024

// endpointSample is a bounded uniform sample of the endpoint history
// (reservoir sampling, Algorithm R): add appends until the slots fill,
// then replaces a uniformly random slot with probability len/seen, so
// at every point each endpoint ever added is equally likely to occupy
// each slot. draw therefore follows the same rich-get-richer
// distribution the legacy generators got from drawing out of an
// unbounded append-only endpoint slice, in O(1) memory: a vertex holds
// slots in proportion to its share of the history, and early seeds
// dilute as the history grows exactly as the unbounded slice diluted
// them. (A pinned-slot scheme is no substitute: permanently reserving
// slots for the seed hubs concentrates a constant fraction of all
// edges on them forever, which collapses the twitter-like graph's
// working set into the LLC and flattens the Fig. 17 speedup.)
type endpointSample struct {
	r    *sim.Rand
	res  []VID
	seen int
}

func newEndpointSample(r *sim.Rand) *endpointSample {
	return &endpointSample{r: r, res: make([]VID, 0, endpointReservoir)}
}

func (s *endpointSample) add(v VID) {
	s.seen++
	if len(s.res) < cap(s.res) {
		s.res = append(s.res, v)
		return
	}
	if j := s.r.Intn(s.seen); j < len(s.res) {
		s.res[j] = v
	}
}

func (s *endpointSample) draw() VID {
	return s.res[s.r.Intn(len(s.res))]
}

// LDBC generates a scale-free social-network-like graph in the spirit of
// the LDBC SNB data generator used by the paper (Table VI). It follows the
// RMAT recursive-quadrant construction with parameters that produce the
// skewed degree distribution and community structure of social graphs,
// with an average out-degree of ~29 matching Table VI's vertex/edge
// ratios (1M vertices / 28.8M edges).
func LDBC(vertices int, seed uint64) *Graph {
	return mustBuildStream(LDBCStream(vertices, seed), true)
}

// LDBCStream is the EdgeStream form of LDBC.
func LDBCStream(vertices int, seed uint64) EdgeStream {
	return RMATStream(vertices, 29, 0.45, 0.22, 0.22, seed)
}

// RMAT generates an R-MAT graph over the next power of two of vertices,
// then folds labels back into range. a, b, c are the quadrant
// probabilities (d = 1-a-b-c). edgeFactor is edges per vertex.
func RMAT(vertices, edgeFactor int, a, b, c float64, seed uint64) *Graph {
	return mustBuildStream(RMATStream(vertices, edgeFactor, a, b, c, seed), true)
}

// rmatStream generates R-MAT edges on the fly. The per-level quadrant
// thresholds are perturbed once at construction (seeded noise), then
// each Edges call replays the same recursive-quadrant walk from a fresh
// PRNG at the same seed. Every edge consumes levels+1 draws, so the
// edges [lo, hi) of a split part start from the PRNG skipped ahead by
// lo·(levels+1).
type rmatStream struct {
	vertices int
	levels   int
	seed     uint64
	lo, hi   int
	// Cumulative quadrant thresholds per level on the 53-bit draw u:
	// u < ta[l] is top-left, u < tab[l] top-right, u < tabc[l]
	// bottom-left, else bottom-right.
	ta, tab, tabc []uint64
}

// RMATStream is the EdgeStream form of RMAT. Each recursion level's
// quadrant probabilities are perturbed by seeded ±10% noise so the graph
// is not perfectly self-similar (as real R-MAT generators do); the noise
// is a pure function of the seed, so the stream stays re-runnable.
func RMATStream(vertices, edgeFactor int, a, b, c float64, seed uint64) EdgeStream {
	if vertices <= 1 {
		panic(fmt.Sprintf("graph: RMAT needs at least 2 vertices, got %d", vertices))
	}
	if a <= 0 || b < 0 || c < 0 || a+b+c >= 1 {
		panic("graph: invalid RMAT quadrant probabilities")
	}
	levels := 0
	for 1<<uint(levels) < vertices {
		levels++
	}
	s := &rmatStream{
		vertices: vertices,
		levels:   levels,
		seed:     seed,
		hi:       vertices * edgeFactor,
		ta:       make([]uint64, levels),
		tab:      make([]uint64, levels),
		tabc:     make([]uint64, levels),
	}
	d := 1 - a - b - c
	rn := sim.NewRand(seed ^ rmatNoiseSalt)
	for l := 0; l < levels; l++ {
		na := a * (0.9 + 0.2*rn.Float64())
		nb := b * (0.9 + 0.2*rn.Float64())
		nc := c * (0.9 + 0.2*rn.Float64())
		nd := d * (0.9 + 0.2*rn.Float64())
		norm := na + nb + nc + nd
		s.ta[l] = drawThreshold(na / norm)
		s.tab[l] = drawThreshold((na + nb) / norm)
		s.tabc[l] = drawThreshold((na + nb + nc) / norm)
	}
	return s
}

// drawThreshold converts a probability threshold t in [0, 1] into the
// integer bound on 53-bit draws: u >= drawThreshold(t) exactly when
// Float64's u/2^53 >= t, since scaling by 2^53 is exact and u is whole.
func drawThreshold(t float64) uint64 {
	return uint64(math.Ceil(t * (1 << 53)))
}

func (s *rmatStream) NumVertices() int { return s.vertices }

func (s *rmatStream) numEdges() int { return s.hi - s.lo }

func (s *rmatStream) split(parts int) []EdgeStream {
	return splitRange(s.lo, s.hi, parts, func(lo, hi int) EdgeStream {
		p := *s
		p.lo, p.hi = lo, hi
		return &p
	})
}

func (s *rmatStream) Edges(emit func(src, dst VID, w uint32) bool) error {
	start := sim.NewRand(s.seed)
	start.Skip(uint64(s.lo) * uint64(s.levels+1))
	r := *start // never addressed, so its state lives in a register
	ta := s.ta
	tab, tabc := s.tab[:len(ta)], s.tabc[:len(ta)]
	var u uint64
	for i := s.lo; i < s.hi; i++ {
		src, dst := 0, 0
		for l := range ta {
			// Quadrant q in 0..3 (a, b, c, d) counts the thresholds the
			// 53-bit draw u reaches; bit 0 selects the dst half, bit 1
			// the src half. The sum compiles to flag materializations
			// instead of the unpredictable branches of a switch.
			r, u = r.Next()
			u >>= 11
			q := b2i(u >= ta[l]) + b2i(u >= tab[l]) + b2i(u >= tabc[l])
			dst |= (q & 1) << uint(l)
			src |= (q >> 1) << uint(l)
		}
		src %= s.vertices
		dst %= s.vertices
		if src == dst {
			dst = (dst + 1) % s.vertices
		}
		r, u = r.Next()
		w := uint32(u%63 + 1) // r.Intn(63) + 1
		if !emit(VID(src), VID(dst), w) {
			return nil
		}
	}
	return nil
}

// b2i is 1 for true and 0 for false; the compiler lowers it to a flag
// set, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// ErdosRenyi generates a uniform random graph with the given average
// out-degree.
func ErdosRenyi(vertices, avgDegree int, seed uint64) *Graph {
	return mustBuildStream(ErdosRenyiStream(vertices, avgDegree, seed), true)
}

// erdosRenyiStream generates uniform random edges on the fly. Every
// edge consumes 3 draws, so the edges [lo, hi) of a split part start
// from the PRNG skipped ahead by 3·lo.
type erdosRenyiStream struct {
	vertices int
	seed     uint64
	lo, hi   int
}

// ErdosRenyiStream is the EdgeStream form of ErdosRenyi.
func ErdosRenyiStream(vertices, avgDegree int, seed uint64) EdgeStream {
	if vertices <= 1 {
		panic("graph: ErdosRenyi needs at least 2 vertices")
	}
	return &erdosRenyiStream{vertices: vertices, seed: seed, hi: vertices * avgDegree}
}

func (s *erdosRenyiStream) NumVertices() int { return s.vertices }

func (s *erdosRenyiStream) numEdges() int { return s.hi - s.lo }

func (s *erdosRenyiStream) split(parts int) []EdgeStream {
	return splitRange(s.lo, s.hi, parts, func(lo, hi int) EdgeStream {
		p := *s
		p.lo, p.hi = lo, hi
		return &p
	})
}

func (s *erdosRenyiStream) Edges(emit func(src, dst VID, w uint32) bool) error {
	r := sim.NewRand(s.seed)
	r.Skip(3 * uint64(s.lo))
	for i := s.lo; i < s.hi; i++ {
		src := r.Intn(s.vertices)
		dst := r.Intn(s.vertices)
		if src == dst {
			dst = (dst + 1) % s.vertices
		}
		if !emit(VID(src), VID(dst), uint32(r.Intn(63)+1)) {
			return nil
		}
	}
	return nil
}

// BitcoinLike generates a transaction graph shaped like the Bitcoin graph
// of the fraud-detection application (Section IV-B5): vertices are
// accounts, edges are transactions; a small set of exchange-like hubs
// participates in a large share of transactions, the rest follow
// preferential attachment, and fraud-ring-like short cycles are planted.
func BitcoinLike(vertices int, seed uint64) *Graph {
	return mustBuildStream(BitcoinLikeStream(vertices, seed), false)
}

// bitcoinStream generates transaction edges from a bounded endpoint
// reservoir instead of the historical unbounded endpoint list (whose
// capacity hint also under-allocated, regrowing a multi-hundred-MB slice
// at paper scale).
type bitcoinStream struct {
	vertices int
	seed     uint64
}

// BitcoinLikeStream is the EdgeStream form of BitcoinLike.
func BitcoinLikeStream(vertices int, seed uint64) EdgeStream {
	if vertices < 16 {
		panic("graph: BitcoinLike needs at least 16 vertices")
	}
	return &bitcoinStream{vertices: vertices, seed: seed}
}

func (s *bitcoinStream) NumVertices() int { return s.vertices }

func (s *bitcoinStream) Edges(emit func(src, dst VID, w uint32) bool) error {
	r := sim.NewRand(s.seed)
	// The real graph has ~2.5 edges per vertex (181.8M/71.7M).
	numEdges := s.vertices * 5 / 2
	hubs := s.vertices / 100
	if hubs < 4 {
		hubs = 4
	}
	// Seed exchanges heavily so they stay hubs while the endpoint
	// sample is small (the real graph's exchanges touch a large share
	// of all transactions); each edge then feeds both endpoints back
	// into the sample for preferential attachment.
	ep := newEndpointSample(r)
	for v := 0; v < hubs; v++ {
		for k := 0; k < 24; k++ {
			ep.add(VID(v))
		}
	}
	for i := 0; i < numEdges; i++ {
		var src, dst VID
		if r.Intn(4) == 0 {
			src = ep.draw()
		} else {
			src = VID(r.Intn(s.vertices))
		}
		if r.Intn(3) == 0 {
			dst = ep.draw()
		} else {
			dst = VID(r.Intn(s.vertices))
		}
		if src == dst {
			dst = VID((int(dst) + 1) % s.vertices)
		}
		w := uint32(r.Intn(1000) + 1)
		ep.add(src)
		ep.add(dst)
		if !emit(src, dst, w) {
			return nil
		}
	}
	// Fraud rings: short cycles of 3..6 accounts moving funds around.
	rings := s.vertices / 200
	var members [6]VID
	for i := 0; i < rings; i++ {
		size := 3 + r.Intn(4)
		for j := 0; j < size; j++ {
			members[j] = VID(r.Intn(s.vertices))
		}
		for j := 0; j < size; j++ {
			if !emit(members[j], members[(j+1)%size], uint32(r.Intn(100)+900)) {
				return nil
			}
		}
	}
	return nil
}

// TwitterLike generates a follower graph shaped like the Twitter dataset
// of the recommender-system application: a heavy-tailed in-degree
// distribution via preferential attachment (celebrities accumulate
// followers) over ~7.7 edges per vertex (85M/11M). All edges carry
// weight 1, so the built graph takes the uniform-weight representation.
func TwitterLike(vertices int, seed uint64) *Graph {
	return mustBuildStream(TwitterLikeStream(vertices, seed), true)
}

// twitterStream generates follower edges from a bounded target reservoir.
type twitterStream struct {
	vertices int
	seed     uint64
}

// TwitterLikeStream is the EdgeStream form of TwitterLike.
func TwitterLikeStream(vertices int, seed uint64) EdgeStream {
	if vertices < 16 {
		panic("graph: TwitterLike needs at least 16 vertices")
	}
	return &twitterStream{vertices: vertices, seed: seed}
}

func (s *twitterStream) NumVertices() int { return s.vertices }

func (s *twitterStream) Edges(emit func(src, dst VID, w uint32) bool) error {
	r := sim.NewRand(s.seed)
	numEdges := s.vertices * 77 / 10
	// Target sample seeded with the 8 celebrity accounts; every follow
	// target feeds back into the sample, so celebrities accumulate
	// followers early and real accounts grow into the tail.
	ep := newEndpointSample(r)
	for v := 0; v < 8; v++ {
		ep.add(VID(v))
	}
	for i := 0; i < numEdges; i++ {
		src := VID(r.Intn(s.vertices))
		var dst VID
		if r.Intn(2) == 0 {
			dst = ep.draw()
		} else {
			dst = VID(r.Intn(s.vertices))
		}
		if src == dst {
			dst = VID((int(dst) + 1) % s.vertices)
		}
		ep.add(dst)
		if !emit(src, dst, 1) {
			return nil
		}
	}
	return nil
}

// LDBCSizes mirrors Table VI: the four dataset sizes the sensitivity
// study sweeps. Footprints scale with vertex count at ~29 edges/vertex.
var LDBCSizes = []struct {
	Name     string
	Vertices int
}{
	{"LDBC-1k", 1_000},
	{"LDBC-10k", 10_000},
	{"LDBC-100k", 100_000},
	{"LDBC-1M", 1_000_000},
}
