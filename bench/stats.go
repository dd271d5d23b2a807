package main

import (
	"math"
	"sort"
)

// summary is one metric of one workload over the timed runs of a set.
type summary struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

// quartiles returns the first quartile, median and third quartile of xs
// by the exclusive method of Python's statistics.quantiles(xs, n=4), the
// method the benchmark's spread rule is defined with. One value is its
// own quartiles; no values give NaN.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func summarize(unit, better string, xs []float64) summary {
	q1, med, q3 := quartiles(xs)
	s := summary{Unit: unit, Better: better, Median: med, Q1: q1, Q3: q3,
		Min: math.Inf(1), Max: math.Inf(-1), N: len(xs), Values: xs}
	for _, x := range xs {
		s.Min, s.Max = math.Min(s.Min, x), math.Max(s.Max, x)
	}
	return s
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 { return (s.Q3 - s.Q1) / math.Abs(s.Median) }

// improves reports whether b reads strictly better than a.
func improves(a, b float64, better string) bool {
	if better == "higher" {
		return b > a
	}
	return b < a
}

// pairWins counts the index-aligned (parent, change) pairs the change
// won; ties count for neither side.
func pairWins(parent, change []float64, better string) (wins, pairs int) {
	pairs = min(len(parent), len(change))
	for i := 0; i < pairs; i++ {
		if improves(parent[i], change[i], better) {
			wins++
		}
	}
	return wins, pairs
}

// Verdicts of judge.
const (
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictBetter     = "better"
	verdictUnresolved = "unresolved"
)

// judge compares one metric of one workload between a parent set and a
// change set. A spread wider than the bound on either side leaves the
// metric unresolved, unless every change run beats every parent run. A
// median worse than the parent's by more than the bound is a regression.
// A gain needs at least ten pairs, nine tenths of them won by the change,
// and a gap between the medians wider than the parent's interquartile
// range.
func judge(parent, change []float64, better string, bound float64) string {
	p := summarize("", better, parent)
	c := summarize("", better, change)
	if p.N == 0 || c.N == 0 {
		return verdictUnresolved
	}
	if p.spread() > bound || c.spread() > bound {
		worstChange, bestParent := c.Max, p.Min
		if better == "higher" {
			worstChange, bestParent = c.Min, p.Max
		}
		if improves(bestParent, worstChange, better) {
			return verdictBetter
		}
		return verdictUnresolved
	}
	loss := (c.Median - p.Median) / math.Abs(p.Median)
	if better == "higher" {
		loss = -loss
	}
	if loss > bound {
		return verdictWorse
	}
	wins, pairs := pairWins(parent, change, better)
	if pairs >= 10 && wins*10 >= pairs*9 && improves(p.Median, c.Median, better) &&
		math.Abs(c.Median-p.Median) > p.Q3-p.Q1 {
		return verdictBetter
	}
	return verdictSame
}
