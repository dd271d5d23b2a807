package trace

import (
	"bytes"
	"testing"
)

// FuzzOpenStream hardens the v2 scanner against corrupt and adversarial
// inputs: OpenStream must either return an error or a stream whose
// every record is valid, never panic or over-allocate, and an accepted
// log must survive re-encoding.
func FuzzOpenStream(f *testing.F) {
	tr, sp := buildSampleTrace(1)
	var buf bytes.Buffer
	if err := WriteV2(&buf, tr, sp); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	mutate := func(off int, val byte) []byte {
		data := append([]byte(nil), valid...)
		data[off] ^= val
		return data
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("GPIMTRC1"))
	f.Add(append([]byte(nil), valid[:len(valid)/2]...))
	f.Add(mutate(9, 0xFF)) // thread count
	// A legacy v1 magic in front of a v2 body.
	f.Add(append([]byte("GPIMTRC1"), valid[8:]...))
	f.Add([]byte("GPIMTRC2"))
	f.Add(append([]byte(nil), valid[:len(valid)-4]...))
	f.Add(mutate(17, 0xFF)) // first chunk header
	f.Add(append([]byte(nil), valid[:len(valid)-8]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := OpenStream(bytes.NewReader(data))
		if err != nil {
			return
		}
		if st.NumThreads() == 0 || st.NumThreads() > 1024 {
			t.Fatalf("implausible thread count %d accepted", st.NumThreads())
		}
		// Every record of an accepted log must be in range: the machine
		// indexes counter arrays by these fields, so an invalid record
		// that slips through the scanner is a replay panic waiting to
		// happen.
		got := &Trace{Threads: make([][]Instr, st.NumThreads())}
		for th := range got.Threads {
			got.Threads[th] = drain(st.Cursor(th))
			for i, in := range got.Threads[th] {
				if err := validateInstr(in); err != nil {
					t.Fatalf("thread %d record %d invalid after accept: %v", th, i, err)
				}
			}
		}
		// A re-encoded log must reopen with the same counts.
		var out bytes.Buffer
		if err := WriteV2(&out, got, st.Space()); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		again, err := OpenStream(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("reopen failed: %v", err)
		}
		if again.NumThreads() != st.NumThreads() {
			t.Fatalf("re-encoded log has %d threads, want %d", again.NumThreads(), st.NumThreads())
		}
		for th := 0; th < st.NumThreads(); th++ {
			if again.ThreadCounts(th) != st.ThreadCounts(th) {
				t.Fatalf("thread %d: re-encoded counts %+v != %+v", th, again.ThreadCounts(th), st.ThreadCounts(th))
			}
		}
	})
}
