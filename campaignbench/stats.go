package main

import (
	"math"
	"sort"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first and third quartile of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), which
// is how the benchmark's spread is judged. One sample is its own
// quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// percentile returns the p-th percentile (0..100) of xs, interpolating
// between closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// summary is the spread of one metric over repeated runs.
type summary struct {
	Unit   string    `json:"unit"`
	Better string    `json:"better"`
	Bound  float64   `json:"bound"`
	Median float64   `json:"median"`
	P25    float64   `json:"p25"`
	P75    float64   `json:"p75"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
	// Status is "ok", or "unresolved" when the spread exceeded the bound
	// after one re-run.
	Status string `json:"status"`
}

func summarize(values []float64, unit, better string, bound float64) summary {
	q1, q3 := quartiles(values)
	return summary{Unit: unit, Better: better, Bound: bound, Median: median(values),
		P25: q1, P75: q3, N: len(values), Values: values, Status: "ok"}
}

// spread is the distance between the quartiles as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.P75 - s.P25) / math.Abs(s.Median)
}

// noisy reports whether the spread exceeds the bound.
func (s summary) noisy() bool { return s.spread() > s.Bound }

// worseBy returns how much worse b is than a, as a share of a, in the
// metric's bad direction (negative when b is better).
func worseBy(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// Verdicts of a comparison.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
)

// verdict compares one metric's runs before (old) and after (new) a
// change. When either side's spread exceeds the bound the difference is
// unresolved, unless every new run beats every old run.
func verdict(old, new summary) string {
	if old.noisy() || new.noisy() {
		if allBeat(old.Better, old.Values, new.Values) {
			return verdictBetter
		}
		return verdictUnresolved
	}
	switch d := worseBy(old.Better, old.Median, new.Median); {
	case d > old.Bound:
		return verdictWorse
	case -d > old.Bound:
		return verdictBetter
	}
	return verdictUnchanged
}

// allBeat reports whether every value of b is better than every value of a.
func allBeat(better string, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	sa, sb := sorted(a), sorted(b)
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}
