package sim

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Stats is a flat registry of named uint64 counters. Components share one
// Stats instance per machine so that experiment harnesses can read any
// counter by name without plumbing accessors through every layer.
//
// The string-keyed methods (Add, Inc, Get, Set) are for cold paths and
// reporting. Per-cycle model code should resolve a Counter handle once at
// construction time and bump it through the handle: the handle is a bare
// pointer increment, with no map lookup or string hashing on the hot path.
//
// A Stats instance is owned by exactly one machine and is not safe for
// concurrent use; the experiment engine parallelizes across machines, each
// with its own registry.
type Stats struct {
	counters map[string]*uint64
}

// NewStats returns an empty counter registry.
func NewStats() *Stats {
	return &Stats{counters: make(map[string]*uint64)}
}

// slot returns the storage cell for name, creating it at zero.
func (s *Stats) slot(name string) *uint64 {
	p, ok := s.counters[name]
	if !ok {
		p = new(uint64)
		s.counters[name] = p
	}
	return p
}

// Counter is a pre-resolved handle to one named counter. The zero Counter
// is invalid; obtain handles from Stats.Counter.
type Counter struct {
	p *uint64
}

// Counter resolves (creating if needed) the named counter and returns a
// handle for allocation-free hot-path updates.
func (s *Stats) Counter(name string) Counter {
	return Counter{p: s.slot(name)}
}

// Add increments the counter by delta.
func (c Counter) Add(delta uint64) { *c.p += delta }

// Inc increments the counter by one.
func (c Counter) Inc() { *c.p++ }

// Value returns the counter's current value.
func (c Counter) Value() uint64 { return *c.p }

// Add increments the named counter by delta.
func (s *Stats) Add(name string, delta uint64) {
	*s.slot(name) += delta
}

// Inc increments the named counter by one.
func (s *Stats) Inc(name string) { s.Add(name, 1) }

// Get returns the value of the named counter (zero if never touched).
func (s *Stats) Get(name string) uint64 {
	if p, ok := s.counters[name]; ok {
		return *p
	}
	return 0
}

// Set overwrites the named counter.
func (s *Stats) Set(name string, v uint64) { *s.slot(name) = v }

// Names returns all counter names in sorted order.
func (s *Stats) Names() []string {
	names := make([]string, 0, len(s.counters))
	for n := range s.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Snapshot returns a copy of all counters.
func (s *Stats) Snapshot() map[string]uint64 {
	out := make(map[string]uint64, len(s.counters))
	for k, p := range s.counters {
		out[k] = *p
	}
	return out
}

// NamedValue is one counter in a stable snapshot.
type NamedValue struct {
	Name  string
	Value uint64
}

// OrderedSnapshot returns a copy of all counters in stable (name-sorted)
// order, for exporters that must emit counters byte-identically across
// runs regardless of map iteration order.
func (s *Stats) OrderedSnapshot() []NamedValue {
	out := make([]NamedValue, 0, len(s.counters))
	for k, p := range s.counters {
		out = append(out, NamedValue{Name: k, Value: *p})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Ratio returns counter a divided by counter b, or NaN when b is zero.
// A zero denominator is a distinct outcome, not a legitimate 0: render
// it as "n/a" in text and null in JSON (see internal/obs.Float) instead
// of a misleading "0.00".
func (s *Stats) Ratio(a, b string) float64 {
	den := s.Get(b)
	if den == 0 {
		return math.NaN()
	}
	return float64(s.Get(a)) / float64(den)
}

// String renders every counter on its own "name = value" line, sorted by
// name; useful for debugging and golden tests.
func (s *Stats) String() string {
	var b strings.Builder
	for _, kv := range s.OrderedSnapshot() {
		fmt.Fprintf(&b, "%s = %d\n", kv.Name, kv.Value)
	}
	return b.String()
}
