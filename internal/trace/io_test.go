package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"graphpim/internal/memmap"
	"graphpim/internal/sim"
)

func buildSampleTrace(seed uint64) (*Trace, *memmap.AddressSpace) {
	sp := memmap.NewAddressSpace()
	meta := sp.AllocMeta(4096)
	prop := sp.PMRMalloc(1 << 16)
	prop2 := sp.PMRMalloc(1 << 12)
	b := NewBuilder(sp, 3)
	r := sim.NewRand(seed)
	for t := 0; t < 3; t++ {
		e := b.Thread(t)
		for i := 0; i < 50+r.Intn(50); i++ {
			switch r.Intn(5) {
			case 0:
				e.Compute(1 + r.Intn(100))
			case 1:
				e.Load(meta+memmap.Addr(r.Intn(512)*8), 8, r.Intn(2) == 0)
			case 2:
				e.Store(prop+memmap.Addr(r.Intn(512)*64), 8, false)
			case 3:
				e.Atomic(AtomicCAS, prop+memmap.Addr(r.Intn(512)*64), 8, false, true, r.Intn(3) == 0)
			case 4:
				e.Atomic(AtomicAdd, prop2+memmap.Addr(r.Intn(64)*64), 8, false, false, false)
			}
		}
	}
	b.Barrier()
	return b.Build(), sp
}

func TestTraceRoundTrip(t *testing.T) {
	tr, sp := buildSampleTrace(1)
	var buf bytes.Buffer
	if err := Write(&buf, tr, sp); err != nil {
		t.Fatal(err)
	}
	got, gotSpace, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumThreads() != tr.NumThreads() {
		t.Fatalf("threads %d != %d", got.NumThreads(), tr.NumThreads())
	}
	for th := range tr.Threads {
		if len(got.Threads[th]) != len(tr.Threads[th]) {
			t.Fatalf("thread %d length differs", th)
		}
		for i := range tr.Threads[th] {
			if got.Threads[th][i] != tr.Threads[th][i] {
				t.Fatalf("thread %d instr %d: %+v != %+v", th, i, got.Threads[th][i], tr.Threads[th][i])
			}
		}
	}
	// PMR ranges must survive so POU routing is identical.
	want := sp.UCRanges()
	have := gotSpace.UCRanges()
	if len(want) != len(have) {
		t.Fatalf("UC ranges %d != %d", len(have), len(want))
	}
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("range %d: %v != %v", i, have[i], want[i])
		}
	}
}

func TestTraceRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		tr, sp := buildSampleTrace(seed)
		var buf bytes.Buffer
		if Write(&buf, tr, sp) != nil {
			return false
		}
		got, gotSpace, err := Read(&buf)
		if err != nil {
			return false
		}
		if got.TotalInstructions() != tr.TotalInstructions() {
			return false
		}
		// Spot-check PMR routing equivalence on every atomic address.
		for th := range tr.Threads {
			for _, in := range tr.Threads[th] {
				if in.Kind == KindAtomic && sp.InPMR(in.Addr) != gotSpace.InPMR(in.Addr) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, _, err := Read(strings.NewReader("not a trace file")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, _, err := Read(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
	// Valid magic, truncated body.
	var buf bytes.Buffer
	buf.Write([]byte("GPIMTRC1"))
	buf.Write([]byte{1, 0, 0, 0})
	if _, _, err := Read(&buf); err == nil {
		t.Fatal("truncated header accepted")
	}
}

func TestReadRejectsImplausibleCounts(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte("GPIMTRC1"))
	// 1M threads.
	buf.Write([]byte{0, 0, 16, 0, 0, 0, 0, 0})
	if _, _, err := Read(&buf); err == nil {
		t.Fatal("implausible thread count accepted")
	}
}

// instrBytes encodes one record.
func instrBytes(in Instr) [16]byte {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[0:8], uint64(in.Addr))
	binary.LittleEndian.PutUint16(b[8:10], in.N)
	b[10] = in.Size
	b[11] = byte(in.Kind)
	b[12] = byte(in.Atomic)
	b[13] = byte(in.Region)
	b[14] = in.Flags
	return b
}

// Write serializes the trace plus the PMR ranges of its address space in
// the legacy v1 layout: the fixture writer for Read's v1 path and the
// FuzzRead seeds.
func Write(w io.Writer, tr *Trace, space *memmap.AddressSpace) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(traceMagic[:]); err != nil {
		return err
	}
	ranges := space.UCRanges()
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(tr.NumThreads()))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(ranges)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var u64 [8]byte
	for _, r := range ranges {
		binary.LittleEndian.PutUint64(u64[:], uint64(r[0]))
		if _, err := bw.Write(u64[:]); err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(u64[:], uint64(r[1]))
		if _, err := bw.Write(u64[:]); err != nil {
			return err
		}
	}
	for _, th := range tr.Threads {
		binary.LittleEndian.PutUint64(u64[:], uint64(len(th)))
		if _, err := bw.Write(u64[:]); err != nil {
			return err
		}
		for _, in := range th {
			b := instrBytes(in)
			if _, err := bw.Write(b[:]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
