package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
)

// ledger is a JSON file of run sets, oldest first.
type ledger struct {
	Entries []runSet `json:"entries"`
}

// appendLedger adds set to the ledger at path, creating the file.
func appendLedger(path string, set *runSet) error {
	var l ledger
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &l); err != nil {
			return fmt.Errorf("parsing existing ledger: %w", err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	l.Entries = append(l.Entries, *set)
	return writeJSON(path, &l)
}

// loadEntry reads "FILE" (the ledger's last entry) or "FILE@N" (entry N,
// counting from 0).
func loadEntry(ref string) (*runSet, error) {
	path, index := ref, -1
	if at := strings.LastIndex(ref, "@"); at >= 0 {
		n, err := strconv.Atoi(ref[at+1:])
		if err != nil || n < 0 {
			return nil, fmt.Errorf("%s: bad entry index", ref)
		}
		path, index = ref[:at], n
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if index < 0 {
		index = len(l.Entries) - 1
	}
	if index < 0 || index >= len(l.Entries) {
		return nil, fmt.Errorf("%s: no entry %d (%d entries)", path, index, len(l.Entries))
	}
	return &l.Entries[index], nil
}

// benchmarkFile is BENCHMARK.json: the workloads and the metrics with
// their units, directions and, end to end, regression bounds.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// loadBenchmarkFile reads BENCHMARK.json from the repository root, which
// is the working directory or its parent.
func loadBenchmarkFile() (*benchmarkFile, error) {
	var lastErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			lastErr = err
			continue
		}
		var b benchmarkFile
		if err := json.Unmarshal(data, &b); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &b, nil
	}
	return nil, lastErr
}

// compareMain prints, for every workload and end-to-end metric, each
// side's median and quartiles and the verdict of judge under the bound in
// BENCHMARK.json; then every model count that differs, as a changed
// simulated result. The first set is the parent, the second the change.
// It exits 1 when a metric got worse or more operations failed.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "bench: -compare needs two run sets: FILE[@N] FILE[@N]")
		return 2
	}
	a, err := loadEntry(args[0])
	var b *runSet
	if err == nil {
		b, err = loadEntry(args[1])
	}
	var bf *benchmarkFile
	if err == nil {
		bf, err = loadBenchmarkFile()
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: -compare: %v\n", err)
		return 2
	}
	return compareSets(stdout, bf, a, b)
}

func compareSets(stdout io.Writer, bf *benchmarkFile, a, b *runSet) int {
	w := bufio.NewWriter(stdout)
	defer w.Flush()
	status := 0
	fmt.Fprintf(w, "%-15s %-13s %-36s %-36s %8s  %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "change", "verdict")
	for _, wl := range bf.Workloads {
		pa, pb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if pa == nil || pb == nil {
			fmt.Fprintf(w, "%-15s not in both sets\n", wl.Name)
			continue
		}
		for _, m := range bf.EndToEnd {
			sa, oka := pa.Metrics[m.Name]
			sb, okb := pb.Metrics[m.Name]
			if !oka || !okb {
				continue
			}
			v := judge(sa.Values, sb.Values, m.Better, m.Bound)
			if v == verdictWorse {
				status = 1
			}
			fmt.Fprintf(w, "%-15s %-13s %-36s %-36s %+7.1f%%  %s\n", wl.Name, m.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g] %s", sa.Median, sa.Q1, sa.Q3, m.Unit),
				fmt.Sprintf("%.4g [%.4g, %.4g] %s", sb.Median, sb.Q1, sb.Q3, m.Unit),
				100*(sb.Median-sa.Median)/sa.Median, v)
		}
		if fa, fb := failedFrac(pa), failedFrac(pb); fb > fa {
			status = 1
			fmt.Fprintf(w, "%-15s more operations failed: %.4g -> %.4g of attempted\n", wl.Name, fa, fb)
		}
	}
	changed := 0
	for _, wl := range bf.Workloads {
		pa, pb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if pa == nil || pb == nil {
			continue
		}
		for _, d := range modelDiff(pa.Model, pb.Model) {
			fmt.Fprintf(w, "simulated result changed: %s %s\n", wl.Name, d)
			changed++
		}
	}
	for _, d := range modelDiff(modelOnly(a.Layers), modelOnly(b.Layers)) {
		fmt.Fprintf(w, "simulated result changed: %s\n", d)
		changed++
	}
	if changed == 0 {
		fmt.Fprintln(w, "simulated results identical")
	}
	return status
}

func failedFrac(wr *workloadResult) float64 {
	if wr.Attempted == 0 {
		return 0
	}
	return float64(wr.Failed) / float64(wr.Attempted)
}

// modelOnly keeps the model.* entries of a traced pass's metrics.
func modelOnly(layers map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range layers {
		if strings.HasPrefix(k, "model.") {
			out[k] = v
		}
	}
	return out
}

// buildCommit is the commit the binary was built from, when the build
// ran inside a git checkout.
func buildCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

// cpuModel is the host CPU's model name.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}
