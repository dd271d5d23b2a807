package harness

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s := summarize([]float64{1, 2, 3, 4})
	if s.mean != 2.5 || s.min != 1 || s.max != 4 {
		t.Fatalf("summary %+v", s)
	}
	// Sample stddev of 1,2,3,4 is sqrt(5/3).
	if math.Abs(s.stdDev-math.Sqrt(5.0/3.0)) > 1e-12 {
		t.Fatalf("stddev = %v", s.stdDev)
	}
}

func TestSummarizeEdgeCases(t *testing.T) {
	if s := summarize(nil); s != (summary{}) {
		t.Fatalf("empty summary %+v", s)
	}
	if s := summarize([]float64{7}); s.stdDev != 0 || s.mean != 7 || s.min != 7 || s.max != 7 {
		t.Fatalf("single summary %+v", s)
	}
}

// Properties: mean lies in [min,max]; stddev is shift-invariant.
func TestSummaryProperties(t *testing.T) {
	f := func(raw []float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e12 {
				vals = append(vals, v)
			}
		}
		if len(vals) < 2 {
			return true
		}
		s := summarize(vals)
		if s.mean < s.min-1e-9 || s.mean > s.max+1e-9 {
			return false
		}
		shifted := make([]float64, len(vals))
		for i, v := range vals {
			shifted[i] = v + 1000
		}
		return math.Abs(s.stdDev-summarize(shifted).stdDev) < 1e-6*(1+s.stdDev)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
