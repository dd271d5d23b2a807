package trace

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"graphpim/internal/memmap"
	"graphpim/internal/sim"
)

// emitSample drives one deterministic emission sequence into b, so the
// same workload can be fed to a materializing and a streaming Builder
// and the two record sequences compared. It exercises every Emitter
// method, compute coalescing across flush boundaries (lots of small
// adjacent batches), batch saturation (>65535), and barriers.
func emitSample(b *Builder, seed uint64, meta, prop, prop2 memmap.Addr, epochs, per int) {
	r := sim.NewRand(seed)
	for ep := 0; ep < epochs; ep++ {
		for t := 0; t < b.NumThreads(); t++ {
			e := b.Thread(t)
			for i := 0; i < per; i++ {
				switch r.Intn(9) {
				case 0:
					e.Compute(1 + r.Intn(40))
				case 1:
					e.Compute(70000) // forces a 65535 split
				case 2:
					e.Load(meta+memmap.Addr(r.Intn(512)*8), 8, r.Intn(2) == 0)
				case 3:
					e.Store(prop+memmap.Addr(r.Intn(512)*64), 8, false)
				case 4:
					e.Atomic(AtomicCAS, prop+memmap.Addr(r.Intn(512)*64), 8, false, true, r.Intn(3) == 0)
				case 5:
					e.Atomic(AtomicAdd, prop2+memmap.Addr(r.Intn(64)*64), 8, false, false, false)
				case 6:
					e.Load(prop+memmap.Addr(r.Intn(512)*64), 8, true)
					e.DependentCompute(1 + r.Intn(5))
				case 7:
					// Adjacent small batches must coalesce identically even
					// when a chunk flush lands between them.
					e.Compute(1)
					e.Compute(2)
					e.Compute(3)
				case 8:
					e.Atomic(AtomicMax, prop2+memmap.Addr(r.Intn(64)*64), 8, false, true, r.Intn(2) == 0)
				}
			}
		}
		b.Barrier()
	}
}

// sampleSpace builds the address space the emission sequence targets.
func sampleSpace() (*memmap.AddressSpace, memmap.Addr, memmap.Addr, memmap.Addr) {
	sp := memmap.NewAddressSpace()
	meta := sp.AllocMeta(4096)
	prop := sp.PMRMalloc(1 << 16)
	prop2 := sp.PMRMalloc(1 << 12)
	return sp, meta, prop, prop2
}

// materializedSample runs emitSample through a materializing Builder.
func materializedSample(seed uint64, epochs, per int) (*Trace, *memmap.AddressSpace) {
	sp, meta, prop, prop2 := sampleSpace()
	b := NewBuilder(sp, 3)
	emitSample(b, seed, meta, prop, prop2, epochs, per)
	return b.Build(), sp
}

// streamedSample runs the same emissions through a streaming Builder
// spilling to a real file in t.TempDir, at a deliberately tiny chunk
// size so every identity test crosses many chunk boundaries.
func streamedSample(t *testing.T, seed uint64, epochs, per, chunkRecords int) *Stream {
	t.Helper()
	sp, meta, prop, prop2 := sampleSpace()
	f, err := os.Create(filepath.Join(t.TempDir(), "spill.gpimtrc2"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	sw, err := NewStreamWriter(f, 3, chunkRecords)
	if err != nil {
		t.Fatal(err)
	}
	b := NewStreamingBuilder(sp, sw)
	emitSample(b, seed, meta, prop, prop2, epochs, per)
	st, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if st == nil {
		t.Fatal("Finalize returned nil Stream for a file-backed writer")
	}
	return st
}

// drain concatenates every window of a cursor.
func drain(c Cursor) []Instr {
	var out []Instr
	for w := c.NextWindow(); w != nil; w = c.NextWindow() {
		out = append(out, w...)
	}
	return out
}

func diffRecords(t *testing.T, label string, got, want []Instr) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d: %+v != %+v", label, i, got[i], want[i])
		}
	}
}

// TestStreamingBuilderIdentity is the core streaming contract: a
// streaming Builder fed the same emissions as a materializing one must
// reproduce the exact record sequence — chunk flushes, compute-tail
// retention, and barrier checkpoints must be invisible in the output.
func TestStreamingBuilderIdentity(t *testing.T) {
	for _, chunk := range []int{32, 257, DefaultChunkRecords} {
		t.Run(fmt.Sprintf("chunk=%d", chunk), func(t *testing.T) {
			want, _ := materializedSample(7, 3, 120)
			st := streamedSample(t, 7, 3, 120, chunk)

			if st.NumThreads() != want.NumThreads() {
				t.Fatalf("threads %d != %d", st.NumThreads(), want.NumThreads())
			}
			if st.TotalInstructions() != want.TotalInstructions() {
				t.Fatalf("instructions %d != %d", st.TotalInstructions(), want.TotalInstructions())
			}
			for k := KindCompute; k <= KindBarrier; k++ {
				if st.CountKind(k) != want.CountKind(k) {
					t.Fatalf("kind %v count %d != %d", k, st.CountKind(k), want.CountKind(k))
				}
			}
			wantAtomics := want.AtomicsByKind()
			for a, n := range st.AtomicsByKind() {
				if wantAtomics[a] != n {
					t.Fatalf("atomic %v count %d != %d", a, n, wantAtomics[a])
				}
			}
			for th := range want.Threads {
				if got := st.ThreadCounts(th); got != CountRecords(want.Threads[th]) {
					t.Fatalf("thread %d counts %+v != %+v", th, got, CountRecords(want.Threads[th]))
				}
				cur := st.Cursor(th)
				diffRecords(t, fmt.Sprintf("thread %d", th), drain(cur), want.Threads[th])
				// Cursor invariants must hold after a full drain too.
				if b, ok := cur.(interface{ AuditBounds() error }); ok {
					if err := b.AuditBounds(); err != nil {
						t.Fatalf("thread %d audit: %v", th, err)
					}
				}
			}
		})
	}
}

// TestStreamCheckpoints verifies barrier checkpoints are replayable
// seek points: the cursor at checkpoint cp must yield exactly the
// records after the cp-th barrier of the materialized stream.
func TestStreamCheckpoints(t *testing.T) {
	const epochs = 4
	want, _ := materializedSample(11, epochs, 60)
	st := streamedSample(t, 11, epochs, 60, 64)

	if st.NumCheckpoints() != epochs {
		t.Fatalf("checkpoints %d, want %d", st.NumCheckpoints(), epochs)
	}
	// afterBarrier[t][cp] is the record index just past the cp-th barrier.
	for cp := 0; cp < epochs; cp++ {
		for th := range want.Threads {
			seen, pos := 0, len(want.Threads[th])
			for i, in := range want.Threads[th] {
				if in.Kind == KindBarrier {
					if seen == cp {
						pos = i + 1
						break
					}
					seen++
				}
			}
			cur, err := st.CursorAt(th, cp)
			if err != nil {
				t.Fatalf("CursorAt(%d, %d): %v", th, cp, err)
			}
			suffix := want.Threads[th][pos:]
			if got := cur.Counts(); got != CountRecords(suffix) {
				t.Fatalf("cursor(%d, %d) counts %+v != %+v", th, cp, got, CountRecords(suffix))
			}
			diffRecords(t, fmt.Sprintf("thread %d from cp %d", th, cp), drain(cur), suffix)
		}
	}
	if _, err := st.CursorAt(0, epochs); err == nil {
		t.Fatal("out-of-range checkpoint accepted")
	}
	if _, err := st.CursorAt(-1, 0); err == nil {
		t.Fatal("negative thread accepted")
	}
	if _, err := st.CursorAt(st.NumThreads(), 0); err == nil {
		t.Fatal("out-of-range thread accepted")
	}
}

// TestWriteV2RoundTrip checks the persisted v2 format against Read:
// records and PMR ranges must survive exactly, as they do for v1.
func TestWriteV2RoundTrip(t *testing.T) {
	tr, sp := buildSampleTrace(1)
	var buf bytes.Buffer
	if err := WriteV2(&buf, tr, sp); err != nil {
		t.Fatal(err)
	}
	got, gotSpace, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumThreads() != tr.NumThreads() {
		t.Fatalf("threads %d != %d", got.NumThreads(), tr.NumThreads())
	}
	for th := range tr.Threads {
		diffRecords(t, fmt.Sprintf("thread %d", th), got.Threads[th], tr.Threads[th])
	}
	want, have := sp.UCRanges(), gotSpace.UCRanges()
	if len(want) != len(have) {
		t.Fatalf("UC ranges %d != %d", len(have), len(want))
	}
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("range %d: %v != %v", i, have[i], want[i])
		}
	}
}

// TestOpenStreamMatchesRead checks the other replay path for persisted
// files: OpenStream over the bytes WriteV2 produced must see the same
// records, counts, and PMR ranges that materializing Read sees. It also
// covers the Finalize contract for non-seekable writers (nil Stream).
func TestOpenStreamMatchesRead(t *testing.T) {
	sp, meta, prop, prop2 := sampleSpace()
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf, 3, 48)
	if err != nil {
		t.Fatal(err)
	}
	b := NewStreamingBuilder(sp, sw)
	emitSample(b, 3, meta, prop, prop2, 2, 80)
	st0, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if st0 != nil {
		t.Fatal("Finalize returned a Stream for a non-ReaderAt writer")
	}

	tr, trSpace, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	st, err := OpenStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if st.NumThreads() != tr.NumThreads() {
		t.Fatalf("threads %d != %d", st.NumThreads(), tr.NumThreads())
	}
	for th := range tr.Threads {
		diffRecords(t, fmt.Sprintf("thread %d", th), drain(st.Cursor(th)), tr.Threads[th])
		if got := st.ThreadCounts(th); got != CountRecords(tr.Threads[th]) {
			t.Fatalf("thread %d counts %+v != %+v", th, got, CountRecords(tr.Threads[th]))
		}
	}
	want, have := trSpace.UCRanges(), st.Space().UCRanges()
	if len(want) != len(have) {
		t.Fatalf("UC ranges %d != %d", len(have), len(want))
	}
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("range %d: %v != %v", i, have[i], want[i])
		}
	}
}

// TestOpenPicksReaderByMagic saves one trace in both formats and opens
// each with Open: the v2 file must come back as a *Stream, the v1 file
// as a materialized *Trace, and both must carry the same records and
// PMR ranges.
func TestOpenPicksReaderByMagic(t *testing.T) {
	tr, sp := buildSampleTrace(3)
	var v1, v2 bytes.Buffer
	if err := Write(&v1, tr, sp); err != nil {
		t.Fatal(err)
	}
	if err := WriteV2(&v2, tr, sp); err != nil {
		t.Fatal(err)
	}
	src1, sp1, err := Open(bytes.NewReader(v1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	src2, sp2, err := Open(bytes.NewReader(v2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := src1.(*Trace); !ok {
		t.Fatalf("v1 file opened as %T, want *Trace", src1)
	}
	if _, ok := src2.(*Stream); !ok {
		t.Fatalf("v2 file opened as %T, want *Stream", src2)
	}
	for th := 0; th < tr.NumThreads(); th++ {
		diffRecords(t, fmt.Sprintf("v1 thread %d", th), drain(src1.Cursor(th)), tr.Threads[th])
		diffRecords(t, fmt.Sprintf("v2 thread %d", th), drain(src2.Cursor(th)), tr.Threads[th])
	}
	if !reflect.DeepEqual(sp1.UCRanges(), sp.UCRanges()) || !reflect.DeepEqual(sp2.UCRanges(), sp.UCRanges()) {
		t.Fatal("PMR ranges lost on Open")
	}
	if _, _, err := Open(bytes.NewReader([]byte("GPIM"))); err == nil {
		t.Fatal("truncated magic accepted")
	}
}

// TestStripSourceStreamMatchesTrace pins the strip adapter across source
// kinds: over a v2 stream and over the materialized trace it must
// expand each atomic into the same load+store pair with identical
// counts.
func TestStripSourceStreamMatchesTrace(t *testing.T) {
	tr, sp := buildSampleTrace(5)
	var buf bytes.Buffer
	if err := WriteV2(&buf, tr, sp); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	want := StripSource(tr)
	got := StripSource(st)
	if got.NumThreads() != want.NumThreads() {
		t.Fatalf("threads %d != %d", got.NumThreads(), want.NumThreads())
	}
	for th := 0; th < want.NumThreads(); th++ {
		gc, wc := got.Cursor(th), want.Cursor(th)
		if gc.Counts() != wc.Counts() {
			t.Fatalf("thread %d counts %+v != %+v", th, gc.Counts(), wc.Counts())
		}
		diffRecords(t, fmt.Sprintf("stripped thread %d", th), drain(gc), drain(wc))
	}
}

// TestV1ReadValidation corrupts individual record fields of a valid v1
// file and checks each is rejected with a positioned error naming the
// record, not silently replayed as garbage.
func TestV1ReadValidation(t *testing.T) {
	// One thread, no PMR ranges: the first record starts at
	// magic(8) + header(8) + count(8) = 24.
	sp := memmap.NewAddressSpace()
	meta := sp.AllocMeta(4096)
	b := NewBuilder(sp, 1)
	e := b.Thread(0)
	e.Load(meta, 8, false)
	e.Store(meta+8, 8, false)
	tr := b.Build()
	var buf bytes.Buffer
	if err := Write(&buf, tr, sp); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	const rec0 = 8 + 8 + 8
	cases := []struct {
		name string
		off  int
		val  byte
	}{
		{"kind", rec0 + 11, 200},
		{"atomic", rec0 + 12, 99},
		{"region", rec0 + 13, 77},
		{"flags", rec0 + 14, 0xF0},
		{"pad", rec0 + 15, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := append([]byte(nil), valid...)
			data[tc.off] = tc.val
			_, _, err := Read(bytes.NewReader(data))
			if err == nil {
				t.Fatalf("corrupt %s byte accepted", tc.name)
			}
			if !bytes.Contains([]byte(err.Error()), []byte("instr 0")) {
				t.Fatalf("error not positioned at record 0: %v", err)
			}
		})
	}
	// The second record must be named too.
	data := append([]byte(nil), valid...)
	data[rec0+16+11] = 200
	if _, _, err := Read(bytes.NewReader(data)); err == nil {
		t.Fatal("corrupt second record accepted")
	} else if !bytes.Contains([]byte(err.Error()), []byte("instr 1")) {
		t.Fatalf("error not positioned at record 1: %v", err)
	}
}

// TestV2ReadRejectsCorrupt feeds structurally broken v2 inputs to both
// v2 entry points; each must error out rather than panic or accept.
func TestV2ReadRejectsCorrupt(t *testing.T) {
	tr, sp := buildSampleTrace(2)
	var buf bytes.Buffer
	if err := WriteV2(&buf, tr, sp); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	mutate := func(off int, val byte) []byte {
		data := append([]byte(nil), valid...)
		data[off] = val
		return data
	}
	cases := map[string][]byte{
		"truncated header":    valid[:12],
		"truncated chunk log": valid[:len(valid)/2],
		"truncated footer":    valid[:len(valid)-4],
		"zero threads":        append(append([]byte(nil), valid[:8]...), 0, 0, 0, 0),
		"zero chunk size":     mutateRange(valid, 12, []byte{0, 0, 0, 0}),
		"huge chunk size":     mutateRange(valid, 12, []byte{0xFF, 0xFF, 0xFF, 0xFF}),
		"unknown tag":         mutate(16, 0x7F),
		"bad end magic":       mutate(len(valid)-1, 'X'),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, _, err := Read(bytes.NewReader(data)); err == nil {
				t.Fatalf("Read accepted %s", name)
			}
			if _, err := OpenStream(bytes.NewReader(data)); err == nil {
				t.Fatalf("OpenStream accepted %s", name)
			}
		})
	}
	if _, err := OpenStream(bytes.NewReader([]byte("GPIMTRC1XXXX"))); err == nil {
		t.Fatal("OpenStream accepted a v1 magic")
	}
}

func mutateRange(valid []byte, off int, val []byte) []byte {
	data := append([]byte(nil), valid...)
	copy(data[off:], val)
	return data
}
