package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of vals by linear
// interpolation between closest ranks; 0 for an empty slice. vals is
// not modified.
func percentile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 { return percentile(vals, 0.5) }

// quartiles reproduces Python's statistics.quantiles(vals, n=4) — the
// "exclusive" method the acceptance check uses — so the spread printed
// by -aa is the number the driver will compute.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		pos := float64(i*(n+1)) / 4 // 1-based rank
		j := int(math.Floor(pos))
		switch {
		case j < 1:
			j = 1
		case j > n-1:
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	return at(1), at(2), at(3)
}

// iqrShare is the interquartile distance as a share of the median; it
// needs at least two values.
func iqrShare(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(vals)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// rangeShare is (max − min) / median: the spread -aa reports for small
// sets, where quartiles mean little.
func rangeShare(vals []float64) float64 {
	m := median(vals)
	if m == 0 {
		return 0
	}
	return (percentile(vals, 1) - percentile(vals, 0)) / math.Abs(m)
}

// spreadOf is the A/A spread of vals: the interquartile distance over
// the median — the number the acceptance check computes — from four
// runs up, and (max − min) over the median below that.
func spreadOf(vals []float64) float64 {
	if len(vals) >= 4 {
		return iqrShare(vals)
	}
	return rangeShare(vals)
}

// spreadOK is the A/A gate: a metric's spread may use at most half of
// its bound, so that two runs of the same code cannot be told apart by
// the bound. setup_s is reported but not gated, as in the acceptance
// check: one run holds only three set-ups.
func spreadOK(name string, spread, bound float64) bool {
	return name == "setup_s" || spread <= bound/2
}
