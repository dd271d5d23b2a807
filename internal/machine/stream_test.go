package machine

import (
	"fmt"
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

// TestStreamedCheckpointSuffix replays only the suffix of a stream from
// its final barrier checkpoint: the replay must retire exactly the
// suffix instruction counts, proving checkpoints are valid machine
// entry points (not just cursor arithmetic).
func TestStreamedCheckpointSuffix(t *testing.T) {
	// Checkpoints only exist in logs the streaming builder wrote (WriteV2
	// conversion is size-chunked with no barrier tags), so build the
	// stream through the spill path.
	sp := memmap.NewAddressSpace()
	prop := sp.PMRMalloc(1 << 14)
	f, err := os.Create(filepath.Join(t.TempDir(), "spill.gpimtrc2"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	sw, err := trace.NewStreamWriter(f, 4, trace.DefaultChunkRecords)
	if err != nil {
		t.Fatal(err)
	}
	b := trace.NewStreamingBuilder(sp, sw)
	for round := 0; round < 3; round++ {
		for th := 0; th < 4; th++ {
			e := b.Thread(th)
			for i := 0; i < 500; i++ {
				e.Compute(3)
				e.Atomic(trace.AtomicAdd, prop+memmap.Addr((i%512)*8), 8, false, false, false)
			}
		}
		b.Barrier()
	}
	st, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if st.NumCheckpoints() != 3 {
		t.Fatalf("checkpoints = %d, want 3", st.NumCheckpoints())
	}

	// Suffix from the last checkpoint: everything after the final
	// barrier, which in this trace is empty — so replay retires zero
	// instructions. From the second checkpoint: exactly one round.
	var want uint64
	for th := 0; th < 4; th++ {
		cur, err := st.CursorAt(th, 1)
		if err != nil {
			t.Fatal(err)
		}
		want += cur.Counts().Instrs
	}
	src := checkpointSource{st: st, cp: 1}
	res := RunSource(GraphPIM(false), sp, src)
	if res.Instructions != want {
		t.Fatalf("suffix replay retired %d instructions, cursor counts say %d", res.Instructions, want)
	}
}

// spillRounds writes rounds [from, to) of a deterministic multi-round
// workload through the spill path, one barrier per round. Rounds differ
// (compute weight and address stride vary per round) so a resume that
// lands on the wrong round cannot silently match.
func spillRounds(t *testing.T, sp *memmap.AddressSpace, prop memmap.Addr, from, to int) *trace.Stream {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "spill.gpimtrc2"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	sw, err := trace.NewStreamWriter(f, 4, trace.DefaultChunkRecords)
	if err != nil {
		t.Fatal(err)
	}
	b := trace.NewStreamingBuilder(sp, sw)
	for round := from; round < to; round++ {
		for th := 0; th < 4; th++ {
			e := b.Thread(th)
			for i := 0; i < 500; i++ {
				e.Compute(2 + round)
				e.Atomic(trace.AtomicAdd, prop+memmap.Addr(((i*(round+1))%512)*8), 8, false, false, false)
			}
		}
		b.Barrier()
	}
	st, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStreamedCheckpointResume is the full resume gate for
// trace.Stream.CursorAt: replaying a stream from a mid-trace barrier
// checkpoint must produce the exact Result — cycles, instructions, every
// counter — of a from-start replay of a stream containing only the
// remaining rounds. That makes checkpoints interchangeable with fresh
// traces as machine entry points, which is what a partitioned or
// restarted replay relies on.
func TestStreamedCheckpointResume(t *testing.T) {
	sp := memmap.NewAddressSpace()
	prop := sp.PMRMalloc(1 << 14)
	full := spillRounds(t, sp, prop, 0, 4)
	if full.NumCheckpoints() != 4 {
		t.Fatalf("checkpoints = %d, want 4", full.NumCheckpoints())
	}
	// Checkpoint cp sits after round cp's barrier, so resuming there
	// replays rounds cp+1..3 — the same records a fresh spill of those
	// rounds holds.
	for _, cp := range []int{0, 1, 2} {
		suffix := spillRounds(t, sp, prop, cp+1, 4)
		for _, cfg := range []Config{Baseline(), GraphPIM(false), UPEI(false)} {
			ref := RunSource(cfg, sp, suffix)
			got := RunSource(cfg, sp, checkpointSource{st: full, cp: cp})
			diffResults(t, fmt.Sprintf("resume cp=%d %s", cp, cfg.Name), got, ref)
		}
	}
}

// checkpointSource adapts a Stream to replay from a fixed checkpoint.
type checkpointSource struct {
	st *trace.Stream
	cp int
}

func (s checkpointSource) NumThreads() int { return s.st.NumThreads() }

func (s checkpointSource) Cursor(thread int) trace.Cursor {
	cur, err := s.st.CursorAt(thread, s.cp)
	if err != nil {
		panic(err)
	}
	return cur
}
