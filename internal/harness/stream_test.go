package harness

import (
	"context"
	"os"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"graphpim/internal/gframe"
	"graphpim/internal/machine"
	"graphpim/internal/trace"
	"graphpim/internal/tune"
	"graphpim/internal/workloads"
)

// TestStreamTableIdentity pins the harness's one trace path against the
// materialized oracle: for every fig4 workload, the memoized baseline
// cell and its strip variant (both replaying the cell's v2 spill) must
// equal machine.RunTrace over a gframe.New trace of the same run, and
// the stripped oracle over trace.StripSource of it. The env runs the
// sanitizer, so every spill replay is audited by the stream-bounds
// checker too.
func TestStreamTableIdentity(t *testing.T) {
	ex, err := ByID("fig4-atomic-overhead")
	if err != nil {
		t.Fatal(err)
	}
	env := testEnv(t, 1)
	if _, err := env.RunExperiment(context.Background(), ex); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads.EvalSet() {
		info := w.Info()
		fw := gframe.New(env.Graph(env.Vertices), env.Threads, gframe.DefaultCostModel())
		w.Run(fw)
		tr := fw.Trace()
		cfg := env.Config(KindBaseline, w)
		for variant, want := range map[string]machine.Result{
			"":      machine.RunTrace(cfg, fw.Space(), tr),
			"strip": machine.RunSource(cfg, fw.Space(), trace.StripSource(tr)),
		} {
			key := runKey{info.Name, env.Vertices, KindBaseline, info.NeedsFPExtension, variant, env.Seed}
			env.mu.Lock()
			s := env.runs[key]
			env.mu.Unlock()
			if s == nil {
				t.Fatalf("%s/%q: fig4 did not run this cell", info.Name, variant)
			}
			if got := s.get(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s/%q: spill replay %d cycles, materialized oracle %d", info.Name, variant, got.Cycles, want.Cycles)
			}
		}
	}
}

// TestCloseRetraces: Close releases every spill file and drops its
// trace from the memo, so a cell run afterwards traces again (rather
// than reading a closed file) and matches a fresh Env's result.
func TestCloseRetraces(t *testing.T) {
	w, err := workloads.ByName("BFS")
	if err != nil {
		t.Fatal(err)
	}
	env := testEnv(t, 1)
	env.Run(w, KindBaseline)
	if err := env.Close(); err != nil {
		t.Fatal(err)
	}
	got := env.Run(w, KindGraphPIM)
	if want := testEnv(t, 1).Run(w, KindGraphPIM); !reflect.DeepEqual(got, want) {
		t.Fatalf("after Close: %d cycles, fresh Env %d", got.Cycles, want.Cycles)
	}
}

// TestStreamSmoke is the million-vertex streaming smoke: a 1M+-vertex
// BFS traced through the spill pipeline and replayed end to end, with
// the heap sampled throughout. It asserts the pipeline's reason to
// exist — peak heap stays below what materializing the trace alone
// would cost — and that the streamed replay retires exactly the
// instruction count the stream footer carries.
//
// It allocates a multi-gigabyte-scale workload's worth of work, so it
// only runs when GRAPHPIM_STREAM_SMOKE=1 (CI runs it in a dedicated
// memory-bounded job; see .github/workflows).
func TestStreamSmoke(t *testing.T) {
	if os.Getenv("GRAPHPIM_STREAM_SMOKE") == "" {
		t.Skip("set GRAPHPIM_STREAM_SMOKE=1 to run the 1M-vertex streaming smoke")
	}
	env := &Env{
		Vertices: 1 << 20,
		Seed:     7,
		Threads:  16,
	}
	defer env.Close()

	// Sample the live heap while the pipeline runs. HeapAlloc between
	// GCs overshoots the live set, so the bound below is generous; the
	// materialized pipeline blows through it anyway (see BENCH_pr7.json
	// for measured before/after peaks).
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

	w, err := workloads.ByName("BFS")
	if err != nil {
		t.Fatal(err)
	}
	res := env.RunSized(w, env.Vertices, KindGraphPIM)
	close(done)
	<-sampler

	tr := env.traceCell(env.ldbc(w, env.Vertices))
	if res.Instructions != tr.stream.TotalInstructions() {
		t.Fatalf("retired %d instructions, stream carries %d", res.Instructions, tr.stream.TotalInstructions())
	}

	// The would-be materialized trace: 16 bytes per record across all
	// threads. Peak heap must stay below graph + a fraction of that —
	// the streamed pipeline's whole point. The graph itself (CSR +
	// properties) is small next to the trace at this scale.
	records := tune.TotalCounts(tr.stream).Records
	materializedBytes := records * 16
	if p := peak.Load(); p >= materializedBytes {
		t.Fatalf("peak heap %d B not below would-be materialized trace %d B", p, materializedBytes)
	}
	t.Logf("1M-vertex BFS: %d records (%d B materialized), peak heap %d B, %d cycles",
		records, materializedBytes, peak.Load(), res.Cycles)
}
