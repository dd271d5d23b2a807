package replicate

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize("x", []float64{1, 2, 3, 4})
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("summary %+v", s)
	}
	// Sample stddev of 1,2,3,4 is sqrt(5/3).
	if math.Abs(s.StdDev-math.Sqrt(5.0/3.0)) > 1e-12 {
		t.Fatalf("stddev = %v", s.StdDev)
	}
	if s.String() == "" {
		t.Fatal("empty String")
	}
}

func TestSummarizeEdgeCases(t *testing.T) {
	if s := Summarize("empty", nil); s.N != 0 || s.Mean != 0 || s.StdDev != 0 {
		t.Fatalf("empty summary %+v", s)
	}
	if s := Summarize("single", []float64{7}); s.StdDev != 0 || s.Mean != 7 {
		t.Fatalf("single summary %+v", s)
	}
}

// Properties: mean lies in [min,max]; stddev is shift-invariant and
// scales with the data.
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
		s := Summarize("p", vals)
		if s.Mean < s.Min-1e-9 || s.Mean > s.Max+1e-9 {
			return false
		}
		shifted := make([]float64, len(vals))
		for i, v := range vals {
			shifted[i] = v + 1000
		}
		s2 := Summarize("p", shifted)
		return math.Abs(s.StdDev-s2.StdDev) < 1e-6*(1+s.StdDev)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
