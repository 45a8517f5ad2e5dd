// Package metrics defines the measurement record every engine run
// produces. The paper's evaluation reports execution time (Figs. 4, 7–10),
// input data amount (Fig. 5) and iowait-time ratio (Fig. 6); Run carries
// all of these plus per-iteration detail used by the convergence analysis
// (Fig. 1) and the ablation benches.
package metrics

import (
	"fmt"
	"strings"
)

// DeviceStats is a per-device byte/time breakdown.
type DeviceStats struct {
	Name         string
	BytesRead    int64
	BytesWritten int64
	BusyTime     float64
	Ops          int64
}

// Iteration records one scatter+gather round.
type Iteration struct {
	// Index is the BFS level (0 = the root's iteration).
	Index int
	// Frontier is the number of vertices in the current frontier.
	Frontier uint64
	// NewlyVisited is the number of vertices discovered this iteration.
	NewlyVisited uint64
	// EdgesStreamed is the number of edges read during scatter; over a
	// prepared graph's resident form, the adjacency entries examined.
	EdgesStreamed int64
	// Updates is the number of updates this iteration's gather applied —
	// the ones the previous iteration's scatter wrote.
	Updates int64
	// Filtered is the number of updates this iteration's scatter
	// generated and the update filter dropped before the shuffle (their
	// destination already visited, or already claimed by an earlier
	// update). The scatter generated Filtered plus the next row's Updates.
	Filtered int64
	// StayEdges is the number of edges written to stay files (FastBFS).
	StayEdges int64
	// StayPredicted is what the trim rule expected StayEdges to be when it
	// chose, before the scans: the live edge counts of the partitions whose
	// scatters trimmed, summed. The two are equal unless a count is off; 0
	// in a row whose trims went uncounted (the static threshold on a
	// top-down run, bottom-up passes, the in-memory loop).
	StayPredicted int64
	// SkippedPartitions counts partitions bypassed by selective
	// scheduling this iteration.
	SkippedPartitions int
	// Cancelled counts stay writes cancelled while preparing this
	// iteration's input.
	Cancelled int
	// TrimActive reports whether the trim rule let this iteration trim; with
	// no static threshold set, each of its scatters then decided for its
	// partition (StayPredicted, StayEdges).
	TrimActive bool
	// BottomUp reports whether this iteration ran in the bottom-up
	// direction (in-edge scan against the frontier bitmap) instead of
	// the top-down scatter/gather.
	BottomUp bool
	// Stored reports a top-down iteration that scanned the stored edge file
	// (a FastBFS run before its split pass), forming the next level with no
	// update file: the next row's Updates and NewlyVisited book it, as the
	// gather it replaced would have.
	Stored bool
	// Sparse reports a row whose pass over a dataset file — a stored row's
	// over the edge list, or the first bottom-up row's over the transposed
	// graph's tails — read only the byte ranges of the indexed file it
	// needed; FileBytes is what such a pass read of the file, and
	// FilePredicted what the ranges promised before the read (0 on a dense
	// row, which reads the whole file).
	Sparse                   bool
	FileBytes, FilePredicted int64
}

// Run is the complete measurement record of one engine execution.
type Run struct {
	Engine string
	Graph  string

	// ExecTime is total time in seconds — virtual when running against
	// disksim, wall-clock in real-disk mode. PreprocTime (GraphChi shard
	// construction) is reported separately, matching the paper, which
	// excludes GraphChi preprocessing from Fig. 4.
	ExecTime    float64
	PreprocTime float64
	IOWait      float64
	// PreprocIOWait is the iowait portion of PreprocTime (GraphChi).
	PreprocIOWait float64
	ComputeTime   float64

	BytesRead    int64
	BytesWritten int64
	Devices      []DeviceStats

	Iterations    []Iteration
	Visited       uint64
	Cancellations int
	Skipped       int
	TrimmedEdges  int64
	// StayBufferWaits counts engine stalls on stay-buffer exhaustion
	// (the paper's condition 1, §III).
	StayBufferWaits int64

	// Deprecated: always zero. ResidentParts and the three fields below
	// counted the resident-partition cache, which is gone (DESIGN.md §8).
	ResidentParts int64
	// Deprecated: always zero.
	ResidentBytes int64
	// Deprecated: always zero.
	ResidentScans int64
	// Deprecated: always zero.
	ResidentBytesSaved int64

	// IORetries counts transient I/O faults cleared by the stream
	// layer's bounded retries; IOFailures counts operations that failed
	// past the retry budget (or permanently). A fault-tolerant run that
	// still produced a correct result shows IORetries > 0, IOFailures
	// == 0.
	IORetries  int64
	IOFailures int64
	// StayCorruptions counts stay files whose checksummed frames failed
	// verification when adopted as input; each one fell back to the
	// partition's previous input (FastBFS).
	StayCorruptions int
	// StayDisabledParts counts partitions whose stay writing was
	// permanently disabled after an unrecoverable stay-write failure
	// (trimming degrades off for them; the run continues).
	StayDisabledParts int

	// Checkpoints counts iteration manifests durably written; Resumed
	// is the number of completed iterations restored from a checkpoint
	// instead of re-executed (0 for a fresh run).
	Checkpoints int
	Resumed     int

	// BottomUpIterations counts iterations run in the bottom-up
	// direction; DirectionSwitches counts top-down↔bottom-up mode
	// changes; SwitchIteration is the first bottom-up iteration, -1
	// when the run stayed top-down throughout. DirectionFallback is set
	// when direction=auto was demoted to top-down for the whole run: the
	// stored graph has no reverse-edge file.
	BottomUpIterations int
	DirectionSwitches  int
	SwitchIteration    int
	DirectionFallback  bool
}

// IOWaitRatio is iowait / exec time (Fig. 6's metric).
func (r *Run) IOWaitRatio() float64 {
	if r.ExecTime == 0 {
		return 0
	}
	return r.IOWait / r.ExecTime
}

// TotalBytes is bytes read + written (the paper's "overall data amount").
func (r *Run) TotalBytes() int64 { return r.BytesRead + r.BytesWritten }

// GB converts a byte count to decimal gigabytes for report rows.
func GB(n int64) float64 { return float64(n) / 1e9 }

// Levels returns the number of BFS levels completed (iterations that
// discovered at least one vertex).
func (r *Run) Levels() int {
	n := 0
	for _, it := range r.Iterations {
		if it.NewlyVisited > 0 {
			n++
		}
	}
	return n
}

// EdgesStreamed sums edges read across all iterations.
func (r *Run) EdgesStreamed() int64 {
	var n int64
	for _, it := range r.Iterations {
		n += it.EdgesStreamed
	}
	return n
}

// UpdatesFiltered sums the updates the update filter dropped across all
// iterations: generated, but never shuffled, written or gathered.
func (r *Run) UpdatesFiltered() int64 {
	var n int64
	for _, it := range r.Iterations {
		n += it.Filtered
	}
	return n
}

// String renders a compact single-line summary.
func (r *Run) String() string {
	s := fmt.Sprintf("%s on %s: time=%.3fs iowait=%.0f%% read=%.3fGB written=%.3fGB iters=%d visited=%d",
		r.Engine, r.Graph, r.ExecTime, 100*r.IOWaitRatio(), GB(r.BytesRead), GB(r.BytesWritten), len(r.Iterations), r.Visited)
	if r.StayBufferWaits > 0 {
		s += fmt.Sprintf(" staywaits=%d", r.StayBufferWaits)
	}
	if r.IORetries > 0 || r.IOFailures > 0 {
		s += fmt.Sprintf(" retries=%d iofail=%d", r.IORetries, r.IOFailures)
	}
	if r.Resumed > 0 {
		s += fmt.Sprintf(" resumed=%d", r.Resumed)
	}
	if r.BottomUpIterations > 0 {
		s += fmt.Sprintf(" bottomup=%d switch@%d", r.BottomUpIterations, r.SwitchIteration)
	}
	return s
}

// Report renders a multi-line human-readable report including the
// per-iteration table.
func (r *Run) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine:        %s\n", r.Engine)
	fmt.Fprintf(&b, "graph:         %s\n", r.Graph)
	fmt.Fprintf(&b, "exec time:     %.4f s\n", r.ExecTime)
	if r.PreprocTime > 0 {
		fmt.Fprintf(&b, "preprocess:    %.4f s\n", r.PreprocTime)
	}
	fmt.Fprintf(&b, "iowait:        %.4f s (%.1f%%)\n", r.IOWait, 100*r.IOWaitRatio())
	fmt.Fprintf(&b, "compute:       %.4f s\n", r.ComputeTime)
	fmt.Fprintf(&b, "bytes read:    %d (%.4f GB)\n", r.BytesRead, GB(r.BytesRead))
	fmt.Fprintf(&b, "bytes written: %d (%.4f GB)\n", r.BytesWritten, GB(r.BytesWritten))
	fmt.Fprintf(&b, "visited:       %d vertices in %d iterations\n", r.Visited, len(r.Iterations))
	if r.Cancellations > 0 {
		fmt.Fprintf(&b, "cancellations: %d\n", r.Cancellations)
	}
	if r.Skipped > 0 {
		fmt.Fprintf(&b, "skipped parts: %d\n", r.Skipped)
	}
	if r.TrimmedEdges > 0 {
		fmt.Fprintf(&b, "trimmed edges: %d\n", r.TrimmedEdges)
	}
	if n := r.UpdatesFiltered(); n > 0 {
		fmt.Fprintf(&b, "updates filtered: %d\n", n)
	}
	if r.StayBufferWaits > 0 {
		fmt.Fprintf(&b, "stay-buf waits: %d\n", r.StayBufferWaits)
	}
	if r.IORetries > 0 || r.IOFailures > 0 {
		fmt.Fprintf(&b, "io retries:    %d (failures past budget: %d)\n", r.IORetries, r.IOFailures)
	}
	if r.StayCorruptions > 0 {
		fmt.Fprintf(&b, "stay corrupt:  %d (fell back to previous input)\n", r.StayCorruptions)
	}
	if r.StayDisabledParts > 0 {
		fmt.Fprintf(&b, "stay disabled: %d partitions (trimming degraded off)\n", r.StayDisabledParts)
	}
	if r.Checkpoints > 0 || r.Resumed > 0 {
		fmt.Fprintf(&b, "checkpoints:   %d written, %d iterations restored by resume\n", r.Checkpoints, r.Resumed)
	}
	if r.BottomUpIterations > 0 {
		fmt.Fprintf(&b, "direction:     %d bottom-up iterations, %d switches, first at iteration %d\n",
			r.BottomUpIterations, r.DirectionSwitches, r.SwitchIteration)
	}
	if r.DirectionFallback {
		b.WriteString("direction:     auto fell back to top-down (no reverse-edge file)\n")
	}
	for _, d := range r.Devices {
		fmt.Fprintf(&b, "device %-6s read=%.4fGB written=%.4fGB busy=%.4fs ops=%d\n",
			d.Name, GB(d.BytesRead), GB(d.BytesWritten), d.BusyTime, d.Ops)
	}
	if len(r.Iterations) > 0 {
		b.WriteString("iter  dir  frontier      new     edges   updates  filtered      stay predicted    file B  skip  cancel trim\n")
		for _, it := range r.Iterations {
			dir := "down"
			switch {
			case it.BottomUp:
				dir = "up"
			case it.Sparse:
				dir = "sprs"
			case it.Stored:
				dir = "file"
			}
			fmt.Fprintf(&b, "%4d %4s %9d %8d %9d %9d %9d %9d %9d %9d %5d %7d %v\n",
				it.Index, dir, it.Frontier, it.NewlyVisited, it.EdgesStreamed, it.Updates, it.Filtered, it.StayEdges,
				it.StayPredicted, it.FileBytes, it.SkippedPartitions, it.Cancelled, it.TrimActive)
		}
	}
	return b.String()
}
