package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := percentile(vals, c.q); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", vals, c.q, got, c.want)
		}
	}
	if vals[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median of four = %v, want 2.5", got)
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4)
// prints for the same lists.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		vals       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 3, 1, 2, 4}, 1.5, 3, 4.5},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{0.30, 0.29, 0.31, 0.35}, 0.2925, 0.305, 0.34},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.vals)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.vals, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := iqrShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("iqrShare(1..10) = %v, want 1", got)
	}
	if got := rangeShare([]float64{9, 10, 11}); !near(got, 0.2) {
		t.Errorf("rangeShare = %v, want 0.2", got)
	}
}

func TestNormalise(t *testing.T) {
	// On the reference machine a wall second is a normalised second.
	if got := normalise(2, calRefS, calRefS); !near(got, 2) {
		t.Errorf("reference machine: %v, want 2", got)
	}
	// A machine running 25% slower stretches kernel and operation alike.
	if got := normalise(2*1.25, calRefS*1.25, calRefS*1.25); !near(got, 2) {
		t.Errorf("slow machine: %v, want 2", got)
	}
	// Drift inside the interval: the mean of the two readings counts.
	if got := normalise(3, calRefS, 2*calRefS); !near(got, 2) {
		t.Errorf("drifting machine: %v, want 2", got)
	}
	// Each round is normalised by its own pair, so a slow round does not
	// taint a fast one.
	fast := roundSample{wallS: 1, cal0: calRefS, cal1: calRefS}
	slow := roundSample{wallS: 2, cal0: 2 * calRefS, cal1: 2 * calRefS}
	if !near(fast.normS(), 1) || !near(slow.normS(), 1) {
		t.Errorf("per-round normalisation: %v and %v, want 1 and 1", fast.normS(), slow.normS())
	}
}

func TestSpreadGate(t *testing.T) {
	// Four or more runs gate on the interquartile share, fewer on the range.
	if got := spreadOf([]float64{9, 10, 11}); !near(got, 0.2) {
		t.Errorf("spreadOf three = %v, want 0.2", got)
	}
	if got := spreadOf([]float64{1, 2, 3, 4, 5}); !near(got, 1) {
		t.Errorf("spreadOf five = %v, want 1", got)
	}
	cases := []struct {
		name          string
		spread, bound float64
		want          bool
	}{
		{"query_norm_s.p50", 0.124, 0.25, true},
		{"query_norm_s.p50", 0.126, 0.25, false},
		{"device_bytes_per_edge", 0, 0.08, true},
		{"setup_s", 0.40, 0.25, true}, // reported, never gated
	}
	for _, c := range cases {
		if got := spreadOK(c.name, c.spread, c.bound); got != c.want {
			t.Errorf("spreadOK(%s, %v, %v) = %v, want %v", c.name, c.spread, c.bound, got, c.want)
		}
	}
}

func TestKernelIsRepeatableAndAllocationFree(t *testing.T) {
	c := newCalibrator()
	first := c.kernel()
	if again := c.kernel(); again != first {
		t.Errorf("kernel results differ between calls: %d then %d — it does not repeat the same work", first, again)
	}
	if n := testing.AllocsPerRun(2, func() { c.sink += c.kernel() }); n != 0 {
		t.Errorf("kernel allocates %v objects per run, want 0", n)
	}
}

func TestWorkloadTable(t *testing.T) {
	for _, name := range []string{"ooc-trim", "ooc-delta-auto"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := w.partitions(); got != 8 {
			t.Errorf("%s: %d partitions, want 8", name, got)
		}
	}
	for _, w := range workloads {
		if w.Serve && (numRoots%w.Clients != 0 || w.MinOps%(w.Clients*w.RoundOps) != 0) {
			t.Errorf("%s: MinOps %d is not a whole number of rounds of %d clients x %d requests", w.Name, w.MinOps, w.Clients, w.RoundOps)
		}
	}
	if _, err := findWorkload("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}
