package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"fastbfs/internal/gen"
	"fastbfs/internal/graph"
	"fastbfs/internal/graphchi"
	"fastbfs/internal/metrics"
	"fastbfs/internal/obs"
	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

// TestTraceCoversExecTime is the tentpole's acceptance check at the
// engine level: on a simulated streaming run, the leaf spans tile the
// virtual timeline, so their durations must sum to the clock-derived
// ExecTime (well within the 5% criterion — the only untraced work is
// span-free bookkeeping, which advances no virtual time at all).
func TestTraceCoversExecTime(t *testing.T) {
	m, edges, err := gen.RMAT(9, 8, gen.Graph500(), 13)
	if err != nil {
		t.Fatal(err)
	}
	vol := storage.NewMem()
	if err := graph.Store(vol, m, edges); err != nil {
		t.Fatal(err)
	}

	col := &obs.Collect{}
	tr := obs.New(col)
	opts := Options{Base: xstream.Options{
		MemoryBudget:  4096, // forces the streaming path
		StreamBufSize: 512,
		Sim:           xstream.DefaultSim(),
		Tracer:        tr,
		Root:          maxDegreeVertex(m, edges),
	}}
	res, err := Run(vol, m.Name, opts)
	if err != nil {
		t.Fatal(err)
	}

	sum := obs.Summarize(col.Events())
	exec := res.Metrics.ExecTime
	if exec <= 0 {
		t.Fatalf("sim run reported ExecTime %v", exec)
	}
	if rel := math.Abs(sum.LeafTotal-exec) / exec; rel > 0.05 {
		t.Errorf("leaf spans cover %.6fs of %.6fs exec time (%.1f%% off, want ≤5%%)",
			sum.LeafTotal, exec, 100*rel)
	}

	// One iteration span per metrics iteration, with matching frontier.
	if len(sum.Iters) == 0 {
		t.Fatal("trace has no iterations")
	}
	var iterRows int
	for _, ip := range sum.Iters {
		if ip.Iter >= 0 {
			iterRows++
			it := res.Metrics.Iterations[ip.Iter]
			if got := ip.Attrs["frontier"]; got != int64(it.Frontier) {
				t.Errorf("iter %d frontier attr = %d, metrics say %d", ip.Iter, got, it.Frontier)
			}
		}
	}
	if iterRows != len(res.Metrics.Iterations) {
		t.Errorf("trace has %d iterations, metrics %d", iterRows, len(res.Metrics.Iterations))
	}

	// The expected §III phases all appear.
	want := map[string]bool{"load": false, "gather": false, "scatter": false, "shuffle": false, "stay-write": false}
	for _, ph := range sum.Phases {
		if _, ok := want[ph]; ok {
			want[ph] = true
		} else {
			t.Errorf("unexpected phase %q", ph)
		}
	}
	for ph, seen := range want {
		if !seen {
			t.Errorf("phase %q missing from trace", ph)
		}
	}
}

// engineCounters is every counter an engine run names in its events.
var engineCounters = []string{obs.CtrEdgesStreamed, obs.CtrUpdatesEmitted, obs.CtrUpdatesFiltered,
	obs.CtrUpdatesApplied, obs.CtrStayEdges, obs.CtrStayBufferWaits, obs.CtrCancellations,
	obs.CtrSkippedParts, obs.CtrVisited, obs.CtrFrontier, obs.CtrIteration, obs.CtrBytesRead,
	obs.CtrBytesWritten, obs.CtrScatterWorkers, obs.CtrScatterChunks, obs.CtrScatterBusyNs,
	obs.CtrIORetries, obs.CtrIOFailures, obs.CtrStayCorruptions, obs.CtrStayDisabled, obs.CtrCheckpoints,
	obs.CtrBottomUpIters, obs.CtrDirectionSwitches, obs.CtrSwitchIteration, obs.CtrDirectionFallbacks}

// TestEngineCountersRepeatTheRecord: the run record is the engines' only
// tally and the live counters are published from it (DESIGN.md §11). So at
// every counters event each engine counter equals the record's total
// through the rows filed so far, and at the last event, after every row,
// the run-level fields too — for X-Stream, FastBFS (the count rule, the
// paper pin, checkpointed) and GraphChi; in memory over the edge list and
// over a resident index, and streaming; over fixed and delta stores; top
// down and auto, with and without a reverse-edge file.
func TestEngineCountersRepeatTheRecord(t *testing.T) {
	type engine struct {
		name string
		run  func(storage.Volume, string, xstream.Options) (*Result, error)
	}
	fastbfs := func(o Options) func(storage.Volume, string, xstream.Options) (*Result, error) {
		return func(vol storage.Volume, name string, base xstream.Options) (*Result, error) {
			o.Base = base
			return Run(vol, name, o)
		}
	}
	engines := []engine{
		{"xstream", func(vol storage.Volume, name string, o xstream.Options) (*Result, error) {
			return xstream.RunContext(context.Background(), vol, name, o)
		}},
		{"fastbfs", fastbfs(Options{})},
		{"fastbfs paper", fastbfs(Options{TrimStartIteration: TrimEveryIteration})},
		{"fastbfs checkpointed", fastbfs(Options{CheckpointVol: storage.NewMem()})},
		{"graphchi", graphchi.Run},
	}
	switched := false
	for _, codec := range []graph.Codec{graph.CodecFixed, graph.CodecDelta} {
		for _, reverse := range []bool{true, false} {
			vol, m, root := storedRMAT(t, 10, 8, graph.StoreOptions{Codec: codec, Reverse: reverse})
			pg, err := xstream.LoadPrepared(context.Background(), vol, m.Name, xstream.Options{MemoryBudget: 1 << 30})
			if err != nil || !pg.Resident() {
				t.Fatalf("prepared graph: %v (resident %v)", err, pg != nil && pg.Resident())
			}
			for _, regime := range []string{"in memory", "resident", "streaming", "streaming wall"} {
				streaming := strings.HasPrefix(regime, "streaming")
				for _, dir := range []xstream.Direction{xstream.DirectionTopDown, xstream.DirectionAuto} {
					for _, en := range engines {
						if en.name == "graphchi" && (!streaming || dir != xstream.DirectionTopDown) ||
							en.name == "fastbfs checkpointed" && !streaming {
							continue
						}
						label := fmt.Sprintf("%s/%s/reverse %v/%s/%s", en.name, codec, reverse, regime, dir)
						col := &obs.Collect{}
						o := xstream.Options{Root: root, StreamBufSize: 512, Sim: xstream.DefaultSim(), Direction: dir, Tracer: obs.New(col)}
						switch regime {
						case "resident":
							o.Prepared = pg
						case "streaming wall":
							o.Sim = nil
							fallthrough
						case "streaming":
							o.MemoryBudget = 4096
						}
						res, err := en.run(vol, m.Name, o)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						switched = switched || regime == "streaming" && res.Metrics.BottomUpIterations > 0
						assertCountersRepeatRecord(t, label, col.Events(), &res.Metrics, streaming && en.name != "graphchi", o.Sim != nil)
					}
				}
			}
		}
	}
	if !switched {
		t.Fatal("no streaming run went bottom-up: the direction counters went untested")
	}
}

// assertCountersRepeatRecord checks a run's counters events against its
// record r. carried says a row's Updates are the ones the row before it
// wrote, as in the streaming loop; elsewhere a row applies what it emits.
// sim says the run's bytes are its simulated devices', whose written count
// gives back the unwritten share of a stay write the run discards.
func assertCountersRepeatRecord(t *testing.T, label string, events []obs.Event, r *metrics.Run, carried, sim bool) {
	t.Helper()
	var seen []map[string]int64
	for _, ev := range events {
		if ev.Kind == obs.KindCounters {
			seen = append(seen, ev.Counters)
		}
	}
	rows := r.Iterations
	if len(seen) != len(rows)+1 {
		t.Fatalf("%s: %d counters events for %d rows, want one a row and one at the end", label, len(seen), len(rows))
	}
	base := int64(r.Visited) // the root, when no row books it
	for _, it := range rows {
		base -= int64(it.NewlyVisited)
	}
	if base != 0 && base != 1 {
		t.Fatalf("%s: the rows visit %d vertices of the record's %d", label, int64(r.Visited)-base, r.Visited)
	}
	var bytesRead, bytesWritten int64
	for k, c := range seen {
		if len(c) != len(engineCounters) {
			t.Errorf("%s: event %d names %d counters, want %d", label, k, len(c), len(engineCounters))
		}
		for _, name := range engineCounters {
			if _, ok := c[name]; !ok {
				t.Errorf("%s: event %d has no %s counter", label, k, name)
			}
		}
		n, last := min(k+1, len(rows)), k == len(rows)
		want := map[string]int64{obs.CtrVisited: base, obs.CtrSwitchIteration: -1,
			obs.CtrDirectionFallbacks: 0, obs.CtrCheckpoints: min(int64(k), int64(r.Checkpoints))}
		if r.DirectionFallback {
			want[obs.CtrDirectionFallbacks] = 1
		}
		if r.BottomUpIterations == 0 {
			want[obs.CtrSwitchIteration] = int64(r.SwitchIteration)
		}
		for j, it := range rows[:n] {
			want[obs.CtrEdgesStreamed] += it.EdgesStreamed
			want[obs.CtrUpdatesApplied] += it.Updates
			want[obs.CtrUpdatesFiltered] += it.Filtered
			want[obs.CtrUpdatesEmitted] += it.Updates + it.Filtered
			want[obs.CtrStayEdges] += it.StayEdges
			want[obs.CtrSkippedParts] += int64(it.SkippedPartitions)
			want[obs.CtrCancellations] += int64(it.Cancelled)
			want[obs.CtrVisited] += int64(it.NewlyVisited)
			want[obs.CtrIteration], want[obs.CtrFrontier] = int64(it.Index), int64(it.Frontier)
			if it.BottomUp {
				want[obs.CtrBottomUpIters]++
				if want[obs.CtrBottomUpIters] == 1 {
					want[obs.CtrSwitchIteration] = int64(it.Index)
				}
			}
			if j > 0 && it.BottomUp != rows[j-1].BottomUp || j == 0 && it.BottomUp {
				want[obs.CtrDirectionSwitches]++
			}
		}
		if carried && n < len(rows) {
			want[obs.CtrUpdatesEmitted] += rows[n].Updates // written by row n-1
		}
		if last {
			want[obs.CtrStayBufferWaits] = r.StayBufferWaits
			want[obs.CtrStayCorruptions] = int64(r.StayCorruptions)
			want[obs.CtrStayDisabled] = int64(r.StayDisabledParts)
			want[obs.CtrIORetries], want[obs.CtrIOFailures] = r.IORetries, r.IOFailures
			if int64(r.Visited) != want[obs.CtrVisited] || r.Cancellations != int(want[obs.CtrCancellations]) ||
				r.Skipped != int(want[obs.CtrSkippedParts]) || r.BottomUpIterations != int(want[obs.CtrBottomUpIters]) ||
				r.DirectionSwitches != int(want[obs.CtrDirectionSwitches]) {
				t.Errorf("%s: the record's run fields %+v disagree with its rows", label, *r)
			}
		}
		for name, v := range want {
			if c[name] != v {
				t.Errorf("%s: event %d (rows 0-%d): %s = %d, the record says %d", label, k, n-1, name, c[name], v)
			}
		}
		// The byte gauges are the bytes the run has moved, which the record
		// takes once the tree is collected: the last event's are the record's.
		if c[obs.CtrBytesRead] < bytesRead || c[obs.CtrBytesWritten] < bytesWritten && !sim ||
			last && (c[obs.CtrBytesRead] != r.BytesRead || c[obs.CtrBytesWritten] != r.BytesWritten) {
			t.Errorf("%s: event %d: bytes %d read, %d written after %d and %d; the record %d and %d",
				label, k, c[obs.CtrBytesRead], c[obs.CtrBytesWritten], bytesRead, bytesWritten, r.BytesRead, r.BytesWritten)
		}
		bytesRead, bytesWritten = c[obs.CtrBytesRead], c[obs.CtrBytesWritten]
	}
}

// TestTraceInMemoryPath checks the in-memory fast path emits a coherent
// trace too (wall-clock here: no sim, durations are real seconds).
func TestTraceInMemoryPath(t *testing.T) {
	m, edges, err := gen.BinaryTree(255)
	if err != nil {
		t.Fatal(err)
	}
	vol := storage.NewMem()
	if err := graph.Store(vol, m, edges); err != nil {
		t.Fatal(err)
	}
	col := &obs.Collect{}
	opts := Options{Base: xstream.Options{Tracer: obs.New(col)}} // default 1 GiB budget → in-memory
	res, err := Run(vol, m.Name, opts)
	if err != nil {
		t.Fatal(err)
	}
	sum := obs.Summarize(col.Events())
	var iterRows int
	for _, ip := range sum.Iters {
		if ip.Iter >= 0 {
			iterRows++
		}
	}
	if iterRows != len(res.Metrics.Iterations) {
		t.Errorf("trace has %d iterations, metrics %d", iterRows, len(res.Metrics.Iterations))
	}
	// The in-memory trim path shows up as the stay-write phase.
	found := false
	for _, ph := range sum.Phases {
		if ph == "stay-write" {
			found = true
		}
	}
	if !found {
		t.Errorf("in-memory trim not traced; phases = %v", sum.Phases)
	}
}
