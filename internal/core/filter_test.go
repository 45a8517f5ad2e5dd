package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fastbfs/internal/gen"
	"fastbfs/internal/graph"
	"fastbfs/internal/metrics"
	"fastbfs/internal/obs"
	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

// Tests of the update filter (DESIGN.md §18, internal/xstream/filter.go):
// it may change which updates are shuffled, never which tree comes out,
// and its telemetry must add up.

// filterPair runs one configuration with the filter on and off.
func filterPair(t *testing.T, label string, xs bool, vol storage.Volume, name string, o Options) (on, off *Result) {
	t.Helper()
	run := func(disable bool) *Result {
		o := o
		o.Base.DisableUpdateFilter = disable
		o.Base.Sim = xstream.DefaultSim()
		var res *Result
		var err error
		if xs {
			res, err = xstream.Run(vol, name, o.Base)
		} else {
			res, err = Run(vol, name, o)
		}
		if err != nil {
			t.Fatalf("%s (filter off = %v): %v", label, disable, err)
		}
		return res
	}
	return run(false), run(true)
}

// assertFilterInvisible checks everything the filter must leave alone:
// the tree, and the direction decided for every iteration both runs have
// — the filtered run may only stop one iteration sooner, skipping the
// unfiltered run's last one, which gathers dead updates and finds nothing.
func assertFilterInvisible(t *testing.T, label string, on, off *Result) {
	t.Helper()
	if on.Visited != off.Visited || !slices.Equal(on.Levels, off.Levels) || !slices.Equal(on.Parents, off.Parents) {
		t.Fatalf("%s: the filter changed the BFS tree", label)
	}
	a, b := on.Metrics.Iterations, off.Metrics.Iterations
	if len(a) != len(b) && (len(a)+1 != len(b) || b[len(b)-1].NewlyVisited != 0) {
		t.Fatalf("%s: %d iterations filtered, %d unfiltered (last unfiltered row %+v)", label, len(a), len(b), b[len(b)-1])
	}
	for i := range a {
		if a[i].BottomUp != b[i].BottomUp || a[i].NewlyVisited != b[i].NewlyVisited || a[i].Frontier != b[i].Frontier {
			t.Fatalf("%s: iteration %d differs: filtered %+v, unfiltered %+v", label, i, a[i], b[i])
		}
	}
	if off.Metrics.UpdatesFiltered() != 0 {
		t.Fatalf("%s: the disabled filter dropped %d updates", label, off.Metrics.UpdatesFiltered())
	}
}

// assertFilterAccounting checks a fault-free top-down pair row by row.
// What a scatter emitted is what the unfiltered run's next gather
// applied, so "emitted = written + filtered" reads off the two runs; and
// everything the filtered run wrote was the first update of an unvisited
// vertex, so its gathers apply nothing but discoveries.
func assertFilterAccounting(t *testing.T, label string, on, off *Result) {
	t.Helper()
	applied := func(rows []metrics.Iteration, i int) int64 {
		if i < len(rows) {
			return rows[i].Updates
		}
		return 0
	}
	var total int64
	for i, it := range on.Metrics.Iterations {
		emitted, written := applied(off.Metrics.Iterations, i+1), applied(on.Metrics.Iterations, i+1)
		if emitted != written+it.Filtered {
			t.Fatalf("%s: iteration %d emitted %d updates, wrote %d and filtered %d", label, i, emitted, written, it.Filtered)
		}
		discovered := int64(it.NewlyVisited)
		if i == 0 {
			discovered-- // the root is marked, not gathered
		}
		if it.Updates != discovered {
			t.Fatalf("%s: iteration %d applied %d updates to discover %d vertices", label, i, it.Updates, discovered)
		}
		total += it.Filtered
	}
	if on.Metrics.UpdatesFiltered() != total {
		t.Fatalf("%s: UpdatesFiltered = %d, rows sum to %d", label, on.Metrics.UpdatesFiltered(), total)
	}
}

// TestUpdateFilterOnOffByteIdentical is the filter's equivalence
// property: over 50 random graphs of the families the other sweeps use,
// FastBFS and X-Stream produce the same levels, parents and direction
// decisions with the filter on as with it off, at every worker count
// {1, 4, 8} × direction {topdown, bottomup, auto} × stored codec {fixed,
// delta+reordered} and (FastBFS) trim rule {the counts, the paper's
// threshold}; the top-down pairs are also checked
// row by row (assertFilterAccounting). Every run of a stored graph grows
// the tree its first run grew, byte for byte.
func TestUpdateFilterOnOffByteIdentical(t *testing.T) {
	directions := []xstream.Direction{xstream.DirectionTopDown, xstream.DirectionBottomUp, xstream.DirectionAuto}
	stores := []graph.StoreOptions{
		{Codec: graph.CodecFixed, Reverse: true},
		{Codec: graph.CodecDelta, Reverse: true, ReorderByDegree: true},
	}
	rng := rand.New(rand.NewSource(18))
	var filtered, streamed int64
	for g := 0; g < 50; g++ {
		var (
			m     graph.Meta
			edges []graph.Edge
			err   error
		)
		switch g % 3 {
		case 0:
			m, edges, err = gen.Uniform(30+uint64(rng.Intn(80)), 60+uint64(rng.Intn(200)), rng.Int63())
		case 1:
			m, edges, err = gen.RMAT(5+rng.Intn(3), 4+rng.Intn(6), gen.Graph500(), rng.Int63())
		default:
			m, edges, err = gen.Uniform(20+uint64(rng.Intn(40)), 40+uint64(rng.Intn(100)), rng.Int63())
			if err == nil {
				m, edges = gen.AddTendrils(m, edges, 1+rng.Intn(3), 2+rng.Intn(5), m.Undirected, rng.Int63())
			}
		}
		if err != nil {
			t.Fatalf("graph %d: %v", g, err)
		}
		for i := 0; i < 1+rng.Intn(3); i++ {
			v := graph.VertexID(rng.Intn(int(m.Vertices)))
			edges = append(edges, graph.Edge{Src: v, Dst: v})
		}
		m.Vertices += uint64(1 + rng.Intn(5))
		m.Edges = uint64(len(edges))
		m.Name = fmt.Sprintf("fsweep%02d", g)
		root := graph.VertexID(rng.Intn(int(m.Vertices)))
		budget := uint64(512 + rng.Intn(3584))
		partitions := 1 + rng.Intn(7)
		bufSize := 128 + rng.Intn(384)

		for _, store := range stores {
			vol := storage.NewMem()
			if err := graph.StoreGraph(vol, m, edges, store); err != nil {
				t.Fatalf("graph %d store(%+v): %v", g, store, err)
			}
			sm, err := graph.LoadMeta(vol, m.Name)
			if err != nil {
				t.Fatal(err)
			}
			// A graph that fits the budget runs in memory, where nothing is
			// shuffled: only the tree is compared.
			streams := budget < xstream.InMemoryNeed(sm)
			var first *Result
			for _, d := range directions {
				for _, w := range []int{1, 4, 8} {
					base := xstream.Options{Root: root, MemoryBudget: budget, Partitions: partitions,
						StreamBufSize: bufSize, ScatterWorkers: w, Direction: d}
					check := func(label string, on, off *Result) {
						t.Helper()
						if first == nil {
							first = on
						}
						assertFilterInvisible(t, label, on, off)
						assertSameResult(t, label+" against the first run", on, first)
						if streams && d == xstream.DirectionTopDown {
							assertFilterAccounting(t, label, on, off)
						}
						filtered += on.Metrics.UpdatesFiltered()
						streamed += on.Metrics.EdgesStreamed()
					}
					variant := fmt.Sprintf("graph %d codec=%s dir=%s workers=%d", g, store.Codec, d, w)
					for _, trimStart := range []int{0, TrimEveryIteration} {
						label := fmt.Sprintf("%s fastbfs(trimstart=%d)", variant, trimStart)
						on, off := filterPair(t, label, false, vol, m.Name, Options{Base: base, TrimStartIteration: trimStart})
						check(label, on, off)
						// What the trim rule counts, no dropped update changes.
						counted := streams && trimStart == 0
						checkTrimRows(t, label, on, counted)
						checkTrimRows(t, label+" filter off", off, counted)
					}
					on, off := filterPair(t, variant+" xstream", true, vol, m.Name, Options{Base: base})
					check(variant+" xstream", on, off)
				}
			}
		}
	}
	if filtered == 0 {
		t.Fatalf("no run filtered a single update over %d streamed edges; the sweep checked nothing", streamed)
	}
}

// TestUpdateFilterTelemetry pins the filter's numbers on one power-law
// graph: most of what a top-down run emits is dead, the live counters
// agree with the metrics record, and the run stops an iteration sooner.
func TestUpdateFilterTelemetry(t *testing.T) {
	m, edges, err := gen.RMAT(10, 8, gen.Graph500(), 42)
	if err != nil {
		t.Fatal(err)
	}
	vol := storage.NewMem()
	if err := graph.Store(vol, m, edges); err != nil {
		t.Fatal(err)
	}
	for _, xs := range []bool{false, true} {
		label := map[bool]string{false: "fastbfs", true: "xstream"}[xs]
		o := smallOpts()
		o.Base.Root = maxDegreeVertex(m, edges)
		o.Base.Direction = xstream.DirectionTopDown
		on, off := filterPair(t, label, xs, vol, m.Name, o)
		assertFilterInvisible(t, label, on, off)
		assertFilterAccounting(t, label, on, off)

		// The live counters of a traced, filtered run against its record.
		tr := obs.New()
		o.Base.Tracer = tr
		traced, _ := filterPair(t, label+" traced", xs, vol, m.Name, o)
		counters := tr.CounterMap() // both runs of the pair: emitted counts twice
		tr.Close()
		var written int64
		for _, it := range traced.Metrics.Iterations {
			written += it.Updates
		}
		emitted, dropped := counters[obs.CtrUpdatesEmitted]/2, counters[obs.CtrUpdatesFiltered]
		if dropped != on.Metrics.UpdatesFiltered() || traced.Metrics.UpdatesFiltered() != dropped || written+dropped != emitted {
			t.Fatalf("%s: counters say %d emitted, %d filtered; the record %d written, %d filtered (untraced run %d)",
				label, emitted, dropped, written, traced.Metrics.UpdatesFiltered(), on.Metrics.UpdatesFiltered())
		}
		if 2*on.Metrics.UpdatesFiltered() < emitted {
			t.Fatalf("%s: filtered only %d of %d emitted updates on a power-law graph", label, on.Metrics.UpdatesFiltered(), emitted)
		}
		if len(on.Metrics.Iterations) != len(off.Metrics.Iterations)-1 {
			t.Fatalf("%s: %d iterations filtered, %d unfiltered; want one fewer", label, len(on.Metrics.Iterations), len(off.Metrics.Iterations))
		}
		if on.Metrics.TotalBytes() >= off.Metrics.TotalBytes() {
			t.Fatalf("%s: moved %d bytes filtered, %d unfiltered", label, on.Metrics.TotalBytes(), off.Metrics.TotalBytes())
		}
	}
}
