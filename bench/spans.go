package main

import (
	"sort"
	"time"
)

// span is one call from the benchmark into a layer's public function.
// Start and End are nanoseconds since the recording process started its
// tracer; Parent indexes the enclosing span in the same list, -1 for none.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer records spans in memory. A nil or disabled tracer just runs the
// wrapped calls, so untraced runs pay nothing for the instrumentation.
// Spans come only from the goroutine that drives the workload.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do runs fn inside a span called name.
func (t *tracer) do(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.t0).Nanoseconds(), Parent: parent})
	t.stack = append(t.stack, id)
	defer func() {
		t.spans[id].End = time.Since(t.t0).Nanoseconds()
		t.stack = t.stack[:len(t.stack)-1]
	}()
	fn()
}

// total returns the summed duration of every span called name, in
// seconds.
func (t *tracer) total(name string) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

// selfTimes returns, per span name, the summed self time in seconds: each
// span's duration minus the time its child spans cover.
func selfTimes(spans []span) map[string]float64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := make(map[string]float64)
	for i, s := range spans {
		out[s.Name] += float64(self[i]) / 1e9
	}
	return out
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
