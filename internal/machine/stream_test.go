package machine

import (
	"os"
	"path/filepath"
	"testing"

	"graphpim/internal/check"
	"graphpim/internal/memmap"
	"graphpim/internal/trace"
)

// streamOf persists tr in v2 and reopens it for streamed replay — the
// same Stream shape the harness's spill-file pipeline produces, without
// depending on the streaming builder here.
func streamOf(t *testing.T, tr *trace.Trace, sp *memmap.AddressSpace) *trace.Stream {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.gpimtrc2")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	if err := trace.WriteV2(f, tr, sp); err != nil {
		t.Fatal(err)
	}
	st, err := trace.OpenStream(f)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStreamedReplayMatchesMaterialized is the machine-level identity
// gate for the streaming pipeline: replaying chunk windows off a file
// must produce the same Result — cycles, instructions, and every
// counter — as replaying the materialized slice, for every config.
func TestStreamedReplayMatchesMaterialized(t *testing.T) {
	// 8 threads x 10k ops is ~7 records per op: dozens of 4096-record
	// chunks per thread, so windows refill many times mid-replay.
	sp, tr := synthWorkload(8, 10000, 1<<16, 77)
	st := streamOf(t, tr, sp)
	for _, cfg := range []Config{Baseline(), GraphPIM(false), UPEI(false)} {
		ref := RunTrace(cfg, sp, tr)
		got := RunSource(cfg, sp, st)
		diffResults(t, "streamed "+cfg.Name, got, ref)
	}

	// And under the periodic sanitizer, which registers the stream
	// cursor's AuditBounds with every audit sweep.
	cfg := GraphPIM(false)
	cfg.Check = check.Periodic
	cfg.CheckInterval = 512
	ref := RunTrace(cfg, sp, tr)
	got := RunSource(cfg, sp, st)
	diffResults(t, "streamed+periodic-checks", got, ref)
}
