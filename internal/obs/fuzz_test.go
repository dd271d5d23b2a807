package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadRecords feeds arbitrary bytes to LoadRecords as a record file.
// Loading must never panic; a file it accepts holds only keyed records
// (workload and config set), and re-encoding what it loaded must load
// back to the same bytes. The seed corpus starts from the record file of
// a recorded `run -quick -out DIR ext-dependent-block` run.
func FuzzLoadRecords(f *testing.F) {
	quick, err := os.ReadFile(filepath.Join("testdata", "ext-dependent-block.jsonl"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(quick)
	f.Add([]byte(`{"bogus":1}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"workload":"BFS","config":"Baseline","ipc":null,"stats":{"a":1,"a":2}}`))
	f.Add(quick[:len(quick)/2])
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		run := ExperimentRun{ID: "x", File: "x.jsonl"}
		if err := os.WriteFile(filepath.Join(dir, run.File), data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, err := LoadRecords(dir, run)
		if err != nil {
			return
		}
		for i, r := range recs {
			if r.Workload == "" || r.Config == "" {
				t.Fatalf("record %d loaded without a key: %+v", i, r)
			}
		}
		first := encodeRecords(t, recs)
		if err := os.WriteFile(filepath.Join(dir, run.File), first, 0o644); err != nil {
			t.Fatal(err)
		}
		back, err := LoadRecords(dir, run)
		if err != nil {
			t.Fatalf("re-encoded records no longer load: %v", err)
		}
		if second := encodeRecords(t, back); !bytes.Equal(first, second) {
			t.Fatalf("records changed across a round trip:\n%s\n%s", first, second)
		}
	})
}

func encodeRecords(t *testing.T, recs []Record) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

// TestLoadRecordsRejects pins the two replay-input guards: a record
// without its cell key and a record file outside the run directory.
func TestLoadRecordsRejects(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.jsonl"), []byte(`{"bogus":1}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRecords(dir, ExperimentRun{ID: "bad", File: "bad.jsonl"}); err == nil {
		t.Error("keyless record loaded")
	}
	for _, file := range []string{"../bad.jsonl", "/etc/passwd", "sub/bad.jsonl", "..", "."} {
		if _, err := LoadRecords(dir, ExperimentRun{ID: "x", File: file}); err == nil {
			t.Errorf("record file %q outside the run directory loaded", file)
		}
	}
}
