package metrics

import (
	"strings"
	"testing"
)

func sample() *Run {
	return &Run{
		Engine:          "fastbfs",
		Graph:           "rmat22",
		ExecTime:        2.0,
		PreprocTime:     0.5,
		IOWait:          1.5,
		ComputeTime:     0.5,
		BytesRead:       3_000_000_000,
		BytesWritten:    1_000_000_000,
		Visited:         1234,
		Cancellations:   2,
		Skipped:         3,
		TrimmedEdges:    99,
		StayBufferWaits: 7,
		Devices: []DeviceStats{
			{Name: "hdd0", BytesRead: 3_000_000_000, BytesWritten: 1_000_000_000, BusyTime: 1.4, Ops: 10},
		},
		Iterations: []Iteration{
			{Index: 0, Frontier: 1, NewlyVisited: 1, EdgesStreamed: 100, Updates: 0, StayEdges: 90, TrimActive: true},
			{Index: 1, Frontier: 10, NewlyVisited: 10, EdgesStreamed: 90, Updates: 12, Filtered: 33, StayEdges: 40, StayPredicted: 41, SkippedPartitions: 1, Cancelled: 1, TrimActive: true},
			{Index: 2, Frontier: 0, NewlyVisited: 0, EdgesStreamed: 40, Updates: 3},
		},
	}
}

func TestIOWaitRatio(t *testing.T) {
	r := sample()
	if got := r.IOWaitRatio(); got != 0.75 {
		t.Errorf("ratio = %v, want 0.75", got)
	}
	empty := &Run{}
	if empty.IOWaitRatio() != 0 {
		t.Error("zero-time run should have ratio 0")
	}
}

func TestTotalBytesAndGB(t *testing.T) {
	r := sample()
	if r.TotalBytes() != 4_000_000_000 {
		t.Errorf("TotalBytes = %d", r.TotalBytes())
	}
	if GB(2_500_000_000) != 2.5 {
		t.Errorf("GB = %v", GB(2_500_000_000))
	}
}

func TestLevelsAndEdgesStreamed(t *testing.T) {
	r := sample()
	if got := r.Levels(); got != 2 {
		t.Errorf("Levels = %d, want 2 (iteration 2 discovered nothing)", got)
	}
	if got := r.EdgesStreamed(); got != 230 {
		t.Errorf("EdgesStreamed = %d, want 230", got)
	}
}

func TestStringSummary(t *testing.T) {
	s := sample().String()
	for _, want := range []string{"fastbfs", "rmat22", "time=2.000s", "iowait=75%", "visited=1234", "staywaits=7"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q: %s", want, s)
		}
	}
}

func TestReportContainsEverything(t *testing.T) {
	rep := sample().Report()
	for _, want := range []string{
		"engine:        fastbfs",
		"graph:         rmat22",
		"preprocess:    0.5000 s",
		"iowait:        1.5000 s (75.0%)",
		"cancellations: 2",
		"skipped parts: 3",
		"trimmed edges: 99",
		"updates filtered: 33",
		"stay-buf waits: 7",
		"device hdd0",
		"iter  dir  frontier",
	} {
		if !strings.Contains(rep, want) {
			t.Errorf("Report missing %q", want)
		}
	}
	// Per-iteration rows present, including the direction, filtered,
	// predicted-stay and stored-file columns.
	if !strings.Contains(rep, "   1 down        10       10        90        12        33        40        41         0     1       1 true") {
		t.Errorf("Report missing iteration row:\n%s", rep)
	}
	sparse := (&Run{Iterations: []Iteration{{Stored: true, Sparse: true, EdgesStreamed: 25, FileBytes: 200, FilePredicted: 200}}}).Report()
	if !strings.Contains(sparse, "   0 sprs         0        0        25         0         0         0         0       200") {
		t.Errorf("Report missing the sparse stored row:\n%s", sparse)
	}
}

func TestReportDirectionSections(t *testing.T) {
	r := sample()
	r.Iterations[2].BottomUp = true
	r.BottomUpIterations = 1
	r.DirectionSwitches = 1
	r.SwitchIteration = 2
	rep := r.Report()
	for _, want := range []string{
		"direction:     1 bottom-up iterations, 1 switches, first at iteration 2",
		"   2   up         0        0        40         3",
	} {
		if !strings.Contains(rep, want) {
			t.Errorf("Report missing %q:\n%s", want, rep)
		}
	}
	if !strings.Contains(r.String(), "bottomup=1 switch@2") {
		t.Errorf("String missing direction summary: %s", r.String())
	}
	fb := &Run{Engine: "xstream", Graph: "g", ExecTime: 1, DirectionFallback: true}
	if !strings.Contains(fb.Report(), "auto fell back to top-down") {
		t.Error("Report missing fallback line")
	}
}

func TestReportOmitsZeroSections(t *testing.T) {
	r := &Run{Engine: "xstream", Graph: "g", ExecTime: 1}
	rep := r.Report()
	for _, absent := range []string{"cancellations", "skipped parts", "trimmed edges", "preprocess", "stay-buf waits", "staywaits"} {
		if strings.Contains(rep, absent) {
			t.Errorf("Report shows zero-valued section %q", absent)
		}
	}
}
