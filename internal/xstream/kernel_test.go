package xstream

import (
	"context"
	"testing"

	"fastbfs/internal/gen"
	"fastbfs/internal/graph"
	"fastbfs/internal/metrics"
	"fastbfs/internal/obs"
	"fastbfs/internal/storage"
)

// TestXStreamTraceHasOnlyXStreamPhases: X-Stream is the kernel with the
// stay mechanism off, and its trace must not show it — no stay-write span
// (a partition with no pending stay file resolves nothing), and no
// bottom-up phase in a top-down run.
func TestXStreamTraceHasOnlyXStreamPhases(t *testing.T) {
	m, edges, err := gen.RMAT(8, 8, gen.Graph500(), 42)
	if err != nil {
		t.Fatal(err)
	}
	vol := storage.NewMem()
	if err := graph.Store(vol, m, edges); err != nil {
		t.Fatal(err)
	}
	col := &obs.Collect{}
	tr := obs.New(col)
	o := smallOpts()
	o.Root = maxDegreeVertex(m, edges)
	o.Direction = DirectionTopDown
	o.Tracer = tr
	if _, err := Run(vol, m.Name, o); err != nil {
		t.Fatal(err)
	}
	tr.Close()
	seen := map[string]int{}
	for _, e := range col.Events() {
		if e.Kind == obs.KindSpan {
			seen[e.Name]++
		}
	}
	for _, phase := range []string{"stay-write", "bottomup", "reverse-split"} {
		if seen[phase] != 0 {
			t.Errorf("top-down X-Stream trace has %d %s spans", seen[phase], phase)
		}
	}
	for _, phase := range []string{"load", "gather", "scatter", "shuffle"} {
		if seen[phase] == 0 {
			t.Errorf("X-Stream trace has no %s span", phase)
		}
	}
}

// TestManifestRecordsLastCompletedIteration reads back what a
// checkpointed run leaves on its checkpoint volume: after a run capped at
// k iterations the manifest names iteration k-1 and is not done (resume
// restarts at k); after a converged run it is done.
func TestManifestRecordsLastCompletedIteration(t *testing.T) {
	m, edges, err := gen.RMAT(8, 8, gen.Graph500(), 7)
	if err != nil {
		t.Fatal(err)
	}
	const engine = "fastbfs"
	run := func(vol, ck storage.Volume, maxIter int) *Result {
		t.Helper()
		o := smallOpts()
		o.Root = maxDegreeVertex(m, edges)
		o.MaxIterations = maxIter
		res, err := RunPolicy(context.Background(), vol, m.Name, engine, o, Policy{
			Trim: true, SelectiveScheduling: true,
			StayBufSize: o.StreamBufSize, StayBufCount: 8,
			GracePeriod:   0.05,
			CheckpointVol: ck,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, killIter := range []int{1, 2, 0} { // 0 = run to convergence
		vol, ck := storage.NewMem(), storage.NewMem()
		if err := graph.Store(vol, m, edges); err != nil {
			t.Fatal(err)
		}
		res := run(vol, ck, killIter)
		man, err := loadManifest(ck)
		if err != nil || man == nil {
			t.Fatalf("kill at %d: manifest: %v, %v", killIter, man, err)
		}
		if man.Engine != engine || man.Graph != m.Name {
			t.Errorf("kill at %d: manifest is for engine %q graph %q", killIter, man.Engine, man.Graph)
		}
		wantIter, wantDone := killIter-1, false
		if killIter == 0 {
			wantIter, wantDone = len(res.Metrics.Iterations)-1, true
		}
		if man.Iteration != wantIter || man.Done != wantDone {
			t.Errorf("kill at %d: manifest iteration %d done=%v, want %d %v", killIter, man.Iteration, man.Done, wantIter, wantDone)
		}
		if files := ck.List(); len(files) != 1 || files[0] != manifestName {
			t.Errorf("kill at %d: checkpoint volume holds %v, want %s alone", killIter, files, manifestName)
		}
	}
}

// TestTrimRuleSharedByBothRegimes: the trim threshold is one rule,
// Policy.TrimActive, and both regimes' iteration rows must say what it
// decided — over start ∈ {0, 2} × fraction ∈ {0, 0.3}. A streaming
// iteration asks as it starts, with what the iterations before it
// visited; an in-memory one after its gather, with its own discoveries
// counted. A row the rule held back wrote no stay edges, and in memory
// (where a pass's survivors are exactly the next scan) left the edge list
// as it was.
func TestTrimRuleSharedByBothRegimes(t *testing.T) {
	m, edges, err := gen.RMAT(9, 8, gen.Graph500(), 6)
	if err != nil {
		t.Fatal(err)
	}
	vol := storage.NewMem()
	if err := graph.Store(vol, m, edges); err != nil {
		t.Fatal(err)
	}
	if (Policy{}).TrimActive(5, m.Vertices, m.Vertices, 0, 1) {
		t.Error("the rule trims with trimming off")
	}
	// With no threshold set the rule weighs the counts: a rewrite pays once
	// it halves its input, and a count nobody took says trim.
	for _, c := range []struct {
		live, input int64
		want        bool
	}{{5, 10, true}, {6, 10, false}, {0, 0, true}, {UnknownEdges, 10, true}, {5, UnknownEdges, true}} {
		if got := (Policy{Trim: true}).TrimActive(0, 1, m.Vertices, c.live, c.input); got != c.want {
			t.Errorf("keeping %d of %d edges: the rule says trim = %v, want %v", c.live, c.input, got, c.want)
		}
	}
	if !(Policy{Trim: true, TrimStartIteration: TrimEveryIteration}).TrimActive(0, 1, m.Vertices, 10, 10) {
		t.Error("the paper's threshold weighed the counts")
	}
	for _, start := range []int{0, 2} {
		for _, fraction := range []float64{0, 0.3} {
			for _, inMemory := range []bool{false, true} {
				o := smallOpts()
				o.Root = maxDegreeVertex(m, edges)
				o.Direction = DirectionTopDown
				if inMemory {
					o.MemoryBudget = 1 << 30
				}
				pol := Policy{Trim: true, TrimStartIteration: start, TrimVisitedFraction: fraction,
					SelectiveScheduling: true, StayBufSize: o.StreamBufSize, StayBufCount: 8,
					GracePeriod: 0.05}
				res, err := RunPolicy(context.Background(), vol, m.Name, "fastbfs", o, pol)
				if err != nil {
					t.Fatal(err)
				}
				rows := res.Metrics.Iterations
				asked := uint64(0) // visited when the rule is asked about row i
				if inMemory {
					asked = 1 // the root, which no in-memory row discovers
				}
				held, trimmed := 0, 0
				for i, it := range rows {
					if inMemory {
						asked += it.NewlyVisited
					}
					want := pol.TrimActive(i, asked, m.Vertices, UnknownEdges, UnknownEdges)
					if it.TrimActive != want {
						t.Errorf("start %d fraction %v inMemory %v: row %d says TrimActive=%v with %d visited, the rule says %v",
							start, fraction, inMemory, i, it.TrimActive, asked, want)
					}
					if !inMemory {
						asked += it.NewlyVisited
					}
					if it.TrimActive {
						trimmed++
					} else {
						held++
						if it.StayEdges != 0 {
							t.Errorf("start %d fraction %v inMemory %v: row %d did not trim but reports %d stay edges",
								start, fraction, inMemory, i, it.StayEdges)
						}
					}
					if inMemory && i+1 < len(rows) {
						next := it.EdgesStreamed
						if it.TrimActive {
							next = it.StayEdges
						}
						if rows[i+1].EdgesStreamed != next {
							t.Errorf("start %d fraction %v: in-memory row %d scans %d edges, row %d left %d",
								start, fraction, i+1, rows[i+1].EdgesStreamed, i, next)
						}
					}
				}
				// A streaming run has visited nothing when it asks about row 0.
				minHeld := start
				if !inMemory && fraction > 0 {
					minHeld = max(start, 1)
				}
				if trimmed == 0 || held < minHeld || (start == 0 && fraction == 0 && held != 0) {
					t.Errorf("start %d fraction %v inMemory %v: %d rows trimmed, %d held back",
						start, fraction, inMemory, trimmed, held)
				}
				if res.Visited != asked {
					t.Errorf("start %d fraction %v inMemory %v: rows add up to %d visited, the run says %d",
						start, fraction, inMemory, asked, res.Visited)
				}
			}
		}
	}
}

// TestPublishNoopZeroAllocs: with tracing off, publishing the record as
// each row is filed costs nothing — no allocation, whatever the record holds.
func TestPublishNoopZeroAllocs(t *testing.T) {
	rt := &Runtime{}
	run := &metrics.Run{Iterations: make([]metrics.Iteration, 64), DirectionFallback: true}
	if avg := testing.AllocsPerRun(1000, func() { rt.Publish(run, 1) }); avg != 0 {
		t.Errorf("publishing to a nil tracer allocates %v per call, want 0", avg)
	}
}
