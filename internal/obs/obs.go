// Package obs is the simulator's run-observability layer: structured,
// machine-readable records of what ran, with which configuration, and
// how every counter came out.
//
// The experiment engine (internal/harness) emits one Record per
// simulation cell — a (workload, config, sweep-point, seed) tuple — and
// groups them per experiment. A run directory written by the CLI holds
// one JSONL file per experiment plus a manifest.json (tool and Go
// version, flag values, environment, per-phase timings, cell counts),
// which together are sufficient to regenerate every text table
// byte-for-byte without re-simulating; see Env.PreloadRecords and the
// `graphpim replay` command.
//
// Everything in this package is plain data over the standard library so
// any layer may import it.
package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"strconv"
)

// Tool and Version identify the producer in manifests.
const (
	Tool    = "graphpim"
	Version = "0.2.0"
)

// Counter is one named counter value.
type Counter struct {
	Name  string
	Value uint64
}

// Counters is a stable, name-sorted counter snapshot. It marshals as a
// JSON object whose keys appear in slice order, so exports are
// byte-stable regardless of map iteration order, and unmarshals back
// into sorted order.
type Counters []Counter

// CountersFromMap converts a counter snapshot map into sorted form.
func CountersFromMap(m map[string]uint64) Counters {
	out := make(Counters, 0, len(m))
	for name, v := range m {
		out = append(out, Counter{Name: name, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Map converts back to a plain map.
func (c Counters) Map() map[string]uint64 {
	m := make(map[string]uint64, len(c))
	for _, kv := range c {
		m[kv.Name] = kv.Value
	}
	return m
}

// Get returns the named counter's value (zero if absent).
func (c Counters) Get(name string) uint64 {
	i := sort.Search(len(c), func(i int) bool { return c[i].Name >= name })
	if i < len(c) && c[i].Name == name {
		return c[i].Value
	}
	return 0
}

// MarshalJSON renders the counters as a JSON object in slice order.
func (c Counters) MarshalJSON() ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte('{')
	for i, kv := range c {
		if i > 0 {
			b.WriteByte(',')
		}
		name, err := json.Marshal(kv.Name)
		if err != nil {
			return nil, err
		}
		b.Write(name)
		b.WriteByte(':')
		b.WriteString(strconv.FormatUint(kv.Value, 10))
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

// UnmarshalJSON reads a JSON object into sorted counter form.
func (c *Counters) UnmarshalJSON(data []byte) error {
	var m map[string]uint64
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	*c = CountersFromMap(m)
	return nil
}

// Float is a float64 whose JSON form is null for NaN and ±Inf (which
// are not representable as JSON numbers). Zero-denominator ratios
// export as null rather than a misleading 0.
type Float float64

// IsValid reports whether the value is a representable JSON number.
func (f Float) IsValid() bool {
	v := float64(f)
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// MarshalJSON emits the number, or null when it has no JSON form.
func (f Float) MarshalJSON() ([]byte, error) {
	if !f.IsValid() {
		return []byte("null"), nil
	}
	return json.Marshal(float64(f))
}

// UnmarshalJSON reads a number or null (restored as NaN).
func (f *Float) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*f = Float(math.NaN())
		return nil
	}
	var v float64
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	*f = Float(v)
	return nil
}

// Record is the structured export of one simulation cell: the full key
// the experiment engine memoizes the cell under, its headline results,
// and the complete counter snapshot. A Record carries everything needed
// to replay the cell's contribution to any table without re-simulating.
type Record struct {
	// Experiment is the harness experiment ID the cell was exported
	// under (a cell shared by several experiments appears in each one's
	// file).
	Experiment string `json:"experiment"`
	// Workload is the cell's workload label (a suite name like "BFS",
	// or a synthetic label like "app:FD" or "dep:K=8").
	Workload string `json:"workload"`
	// Config is the evaluated configuration kind: "Baseline", "U-PEI",
	// or "GraphPIM".
	Config string `json:"config"`
	// ConfigName is the assembled machine's display name (e.g.
	// "GraphPIM+FP").
	ConfigName string `json:"config_name"`
	// Variant is the sweep-point label ("fu8", "bw0.5", ...; empty for
	// the plain configuration).
	Variant string `json:"variant,omitempty"`
	// Extended records whether the FP atomic extension was active.
	Extended bool `json:"extended,omitempty"`
	// Vertices is the graph size (or the synthetic cell's scale knob).
	Vertices int `json:"vertices"`
	// Seed is the generator seed.
	Seed uint64 `json:"seed"`

	// Cycles and Instructions are the headline simulation outputs.
	Cycles       uint64 `json:"cycles"`
	Instructions uint64 `json:"instructions"`
	// IPC is aggregate instructions/cycles across all cores; null when
	// the cell retired in zero cycles.
	IPC Float `json:"ipc"`
	// WallNs is the host wall-clock time the cell took to simulate
	// (0 for cells loaded from a previous run).
	WallNs int64 `json:"wall_ns"`

	// Stats is the full counter snapshot in stable (name-sorted) order.
	Stats Counters `json:"stats"`
}

// EnvInfo is the experiment environment a run was produced under —
// enough to rebuild an equivalent harness Env for replay.
type EnvInfo struct {
	Vertices     int    `json:"vertices"`
	Seed         uint64 `json:"seed"`
	Threads      int    `json:"threads"`
	ScaledCaches bool   `json:"scaled_caches"`
	SweepSizes   []int  `json:"sweep_sizes"`
	AppVertices  int    `json:"app_vertices"`
	Parallelism  int    `json:"parallelism"`
	// Stream records whether traces were built through the streaming
	// spill pipeline (DESIGN.md §13). Results are byte-identical either
	// way; recorded for provenance.
	Stream bool `json:"stream,omitempty"`
	// Memory is the memory backend kind the machines were assembled
	// against ("" means the default HMC chain). Unlike Stream it changes
	// simulated numbers, so replay must rebuild the same backend.
	Memory string `json:"memory,omitempty"`
	// Policy is the placement-policy override applied to every offload
	// cell ("" none, "auto" tuner-decided, "host"/"pim"/"upei" pinned).
	// Like Memory it changes simulated numbers, so replay must carry it.
	Policy string `json:"policy,omitempty"`
	// NumCPU and Gomaxprocs record the host the run was produced on, so
	// committed results (manifests, BENCH_*.json) carry machine
	// provenance. Neither affects any simulated number.
	NumCPU     int `json:"num_cpu,omitempty"`
	Gomaxprocs int `json:"gomaxprocs,omitempty"`
}
