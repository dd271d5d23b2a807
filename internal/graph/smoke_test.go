package graph

import (
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestGraphSmokeTwitter11M is the paper-scale graph smoke: build the
// 11M-vertex twitter-shaped graph (Table VII: 11M/85M) through the
// streaming two-pass path with the heap sampled throughout, and assert
// the build's reason to exist — sampled peak heap stays below what the
// historical materialized []Edge alone would cost (12 bytes per raw
// edge), even though that bound doesn't count the CSR output the peak
// DOES include.
//
// It allocates ~850MB of CSR, so it only runs when
// GRAPHPIM_GRAPH_SMOKE=1 (CI runs it in a dedicated memory-bounded job
// under GOMEMLIMIT; see .github/workflows and `make smoke-graph`).
func TestGraphSmokeTwitter11M(t *testing.T) {
	if os.Getenv("GRAPHPIM_GRAPH_SMOKE") == "" {
		t.Skip("set GRAPHPIM_GRAPH_SMOKE=1 to run the 11M-vertex graph smoke")
	}
	const vertices = 11_000_000

	// Sample the live heap while the build runs (same sampler shape as
	// the harness stream smoke).
	var peak atomic.Uint64
	done := make(chan struct{})
	sampler := make(chan struct{})
	go func() {
		defer close(sampler)
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			for {
				p := peak.Load()
				if ms.HeapAlloc <= p || peak.CompareAndSwap(p, ms.HeapAlloc) {
					break
				}
			}
			select {
			case <-done:
				return
			case <-time.After(50 * time.Millisecond):
			}
		}
	}()

	s := TwitterLikeStream(vertices, 7)
	var rawEdges uint64
	if err := s.Edges(func(_, _ VID, _ uint32) bool { rawEdges++; return true }); err != nil {
		t.Fatal(err)
	}
	g, err := BuildStream(s, true)
	if err == nil {
		g.InNeighbors(0) // the in-CSR is built on first use; the peak includes it
	}
	close(done)
	<-sampler
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != vertices {
		t.Fatalf("built %d vertices, want %d", g.NumVertices(), vertices)
	}
	if _, ok := g.UniformWeight(); !ok {
		t.Fatal("twitter graph not in the uniform-weight representation")
	}

	// The would-be edge list: 12 bytes per raw (pre-dedup) edge. The
	// legacy path held that on top of its sort copy and the CSR; the
	// streaming build's peak — CSR included — must come in below the
	// edge list alone.
	edgeListBytes := rawEdges * 12
	if p := peak.Load(); p >= edgeListBytes {
		t.Fatalf("peak heap %d B not below would-be edge list %d B", p, edgeListBytes)
	}
	t.Logf("11M-vertex twitter: %d raw edges (%d B as []Edge), %d edges built, peak heap %d B, CSR %d B",
		rawEdges, edgeListBytes, g.NumEdges(), peak.Load(), g.StructureBytes())
}
