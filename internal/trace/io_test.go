package trace

import (
	"bytes"
	"fmt"
	"reflect"
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

// roundTrip writes tr in v2 and reopens the bytes as a Stream.
func roundTrip(t testing.TB, tr *Trace, sp *memmap.AddressSpace) *Stream {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteV2(&buf, tr, sp); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestTraceRoundTrip(t *testing.T) {
	tr, sp := buildSampleTrace(1)
	got := roundTrip(t, tr, sp)
	if got.NumThreads() != tr.NumThreads() {
		t.Fatalf("threads %d != %d", got.NumThreads(), tr.NumThreads())
	}
	for th := range tr.Threads {
		diffRecords(t, fmt.Sprintf("thread %d", th), drain(got.Cursor(th)), tr.Threads[th])
	}
	// PMR ranges must survive so POU routing is identical.
	if want, have := sp.UCRanges(), got.Space().UCRanges(); !reflect.DeepEqual(have, want) {
		t.Fatalf("UC ranges %v != %v", have, want)
	}
}

func TestTraceRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		tr, sp := buildSampleTrace(seed)
		var buf bytes.Buffer
		if WriteV2(&buf, tr, sp) != nil {
			return false
		}
		got, err := OpenStream(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return false
		}
		if got.TotalInstructions() != tr.TotalInstructions() {
			return false
		}
		// Spot-check PMR routing equivalence on every atomic address.
		gotSpace := got.Space()
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
	for name, data := range map[string]string{
		"garbage": "not a trace file",
		"empty":   "",
		// Valid magic, truncated header.
		"truncated header": "GPIMTRC2\x01\x00\x00\x00",
	} {
		if _, err := OpenStream(strings.NewReader(data)); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	// A legacy v1 file is named as such, not reported as garbage.
	_, err := OpenStream(strings.NewReader("GPIMTRC1\x01\x00\x00\x00\x00\x00\x00\x00"))
	if err == nil || !strings.Contains(err.Error(), "legacy v1") {
		t.Fatalf("v1 file: error %v, want a legacy-v1 message", err)
	}
}

func TestReadRejectsImplausibleCounts(t *testing.T) {
	for name, hdr := range map[string][]byte{
		"1M threads":        {0, 0, 16, 0, 0x00, 0x10, 0, 0},
		"2^31-record chunk": {1, 0, 0, 0, 0, 0, 0, 0x80},
	} {
		data := append([]byte("GPIMTRC2"), hdr...)
		if _, err := OpenStream(bytes.NewReader(data)); err == nil {
			t.Fatalf("implausible header (%s) accepted", name)
		}
	}
}
