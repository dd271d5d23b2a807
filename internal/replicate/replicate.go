// Package replicate aggregates metrics across repeated runs (different
// generator seeds), so experiment conclusions can be reported as mean and
// dispersion rather than single samples. The paper reports single
// simulations per configuration; the ext-seed-stability experiment uses
// this package to show the headline speedups are stable across graph
// instances.
package replicate

import (
	"fmt"
	"math"
)

// Summary describes one metric's distribution over a set of runs.
type Summary struct {
	Name   string
	N      int
	Mean   float64
	StdDev float64 // sample standard deviation (n-1)
	Min    float64
	Max    float64
}

// String renders "name: mean ± std (n=N, min..max)".
func (s Summary) String() string {
	return fmt.Sprintf("%s: %.3f ± %.3f (n=%d, %.3f..%.3f)",
		s.Name, s.Mean, s.StdDev, s.N, s.Min, s.Max)
}

// Summarize computes the summary of one sample set.
func Summarize(name string, values []float64) Summary {
	out := Summary{Name: name, N: len(values)}
	if len(values) == 0 {
		return out
	}
	out.Min, out.Max = values[0], values[0]
	var sum float64
	for _, v := range values {
		sum += v
		if v < out.Min {
			out.Min = v
		}
		if v > out.Max {
			out.Max = v
		}
	}
	out.Mean = sum / float64(len(values))
	if len(values) > 1 {
		var ss float64
		for _, v := range values {
			d := v - out.Mean
			ss += d * d
		}
		out.StdDev = math.Sqrt(ss / float64(len(values)-1))
	}
	return out
}
