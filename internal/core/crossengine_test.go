package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"fastbfs/internal/bfs"
	"fastbfs/internal/disksim"
	"fastbfs/internal/gen"
	"fastbfs/internal/graph"
	"fastbfs/internal/graphchi"
	"fastbfs/internal/obs"
	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

// TestAllEnginesAgreeProperty is the repository's strongest invariant:
// on random graphs with randomized configuration, FastBFS, X-Stream,
// GraphChi and the in-memory reference all produce identical BFS levels
// and valid parent trees.
func TestAllEnginesAgreeProperty(t *testing.T) {
	f := func(seed int64, rootSeed, budgetSeed, bufSeed uint8, twoDisks, delayTrim bool) bool {
		m, edges, err := gen.Uniform(40+uint64(rootSeed)%30, 120+uint64(budgetSeed), seed)
		if err != nil {
			return false
		}
		root := graph.VertexID(uint64(rootSeed) % m.Vertices)
		vol := storage.NewMem()
		if err := graph.Store(vol, m, edges); err != nil {
			return false
		}
		budget := uint64(512 + int(budgetSeed)*8)
		bufSize := 128 + int(bufSeed)

		mkSim := func() *xstream.SimConfig {
			s := xstream.DefaultSim()
			if twoDisks {
				s.AuxDisk = disksim.HDD("hdd1")
			}
			return s
		}
		ref, err := bfs.Run(m, edges, root)
		if err != nil {
			return false
		}
		check := func(res *xstream.Result, err error) bool {
			if err != nil {
				t.Logf("engine error: %v", err)
				return false
			}
			got := &bfs.Result{Root: root, Level: res.Levels, Parent: res.Parents, Visited: res.Visited}
			if e := bfs.Equal(ref, got); e != nil {
				t.Logf("mismatch: %v", e)
				return false
			}
			return bfs.Validate(m, edges, got) == nil
		}

		fbOpts := Options{Base: xstream.Options{
			Root: root, MemoryBudget: budget, StreamBufSize: bufSize, Sim: mkSim(),
		}}
		if delayTrim {
			fbOpts.TrimStartIteration = 2
		}
		fb, err := Run(vol, m.Name, fbOpts)
		if !check(fb, err) {
			return false
		}
		checkTrimRows(t, "fastbfs", fb, countsTrims(m, fbOpts))
		if !check(xstream.Run(vol, m.Name, xstream.Options{
			Root: root, MemoryBudget: budget, StreamBufSize: bufSize, Sim: mkSim(),
		})) {
			return false
		}
		return check(graphchi.Run(vol, m.Name, xstream.Options{
			Root: root, MemoryBudget: budget, StreamBufSize: bufSize, Sim: mkSim(),
		}))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestEnginesAgreeAcrossWorkerCounts is the parallel-scatter equivalence
// property: over ~50 random graphs spanning degree-skew families,
// disconnected components, self-loops and varied partition counts, all
// three engines produce BFS levels identical to the in-memory reference
// at every scatter worker count — the pool must be invisible in results.
func TestEnginesAgreeAcrossWorkerCounts(t *testing.T) {
	workerCounts := []int{1, 4, runtime.NumCPU()}
	rng := rand.New(rand.NewSource(42))
	const numGraphs = 50
	for g := 0; g < numGraphs; g++ {
		var (
			m     graph.Meta
			edges []graph.Edge
			err   error
		)
		switch g % 3 {
		case 0: // uniform random, moderate degree
			m, edges, err = gen.Uniform(30+uint64(rng.Intn(80)), 60+uint64(rng.Intn(200)), rng.Int63())
		case 1: // RMAT: heavy degree skew
			m, edges, err = gen.RMAT(5+rng.Intn(3), 4+rng.Intn(6), gen.Graph500(), rng.Int63())
		default: // uniform core with tendril chains hanging off it
			m, edges, err = gen.Uniform(20+uint64(rng.Intn(40)), 40+uint64(rng.Intn(100)), rng.Int63())
			if err == nil {
				m, edges = gen.AddTendrils(m, edges, 1+rng.Intn(3), 2+rng.Intn(5), m.Undirected, rng.Int63())
			}
		}
		if err != nil {
			t.Fatalf("graph %d: %v", g, err)
		}
		// Self-loops: legal edges that never discover anything new.
		for i := 0; i < 1+rng.Intn(3); i++ {
			v := graph.VertexID(rng.Intn(int(m.Vertices)))
			edges = append(edges, graph.Edge{Src: v, Dst: v})
		}
		// Isolated vertices: the root may land on one, making (almost)
		// the whole graph a disconnected component.
		m.Vertices += uint64(1 + rng.Intn(5))
		m.Edges = uint64(len(edges))
		m.Name = fmt.Sprintf("wsweep%02d", g)

		vol := storage.NewMem()
		if err := graph.Store(vol, m, edges); err != nil {
			t.Fatalf("graph %d: %v", g, err)
		}
		root := graph.VertexID(rng.Intn(int(m.Vertices)))
		ref, err := bfs.Run(m, edges, root)
		if err != nil {
			t.Fatalf("graph %d: reference: %v", g, err)
		}
		// Small budgets stream with varied partition counts, through the
		// scatter pool; every fifth graph gets a budget big enough for the
		// in-memory fast path, so the one-shot loop is swept too.
		budget := uint64(512 + rng.Intn(3584))
		if g%5 == 4 {
			budget = 1 << 20
		}
		partitions := 1 + rng.Intn(7)
		bufSize := 128 + rng.Intn(384)

		for _, w := range workerCounts {
			base := xstream.Options{
				Root: root, MemoryBudget: budget, Partitions: partitions,
				StreamBufSize: bufSize, ScatterWorkers: w, Sim: xstream.DefaultSim(),
			}
			check := func(engine string, res *xstream.Result, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("graph %d %s workers=%d: %v", g, engine, w, err)
				}
				got := &bfs.Result{Root: root, Level: res.Levels, Parent: res.Parents, Visited: res.Visited}
				if e := bfs.Equal(ref, got); e != nil {
					t.Fatalf("graph %d %s workers=%d: %v", g, engine, w, e)
				}
				if e := bfs.Validate(m, edges, got); e != nil {
					t.Fatalf("graph %d %s workers=%d: invalid tree: %v", g, engine, w, e)
				}
			}
			// FastBFS trims by the edge counts, whose every prediction must
			// be exact, and is held against the paper's trim-at-every-scatter:
			// the same tree, and nothing written above half of what the rule
			// weighed (checkKeptHalf).
			o := Options{Base: base}
			o.Base.Sim = xstream.DefaultSim()
			col := &obs.Collect{}
			o.Base.Tracer = obs.New(col)
			fb, err := Run(vol, m.Name, o)
			o.Base.Tracer = nil
			label := fmt.Sprintf("graph %d workers=%d fastbfs", g, w)
			check("fastbfs", fb, err)
			counted := countsTrims(m, o)
			checkTrimRows(t, label, fb, counted)
			o.Base.Sim, o.TrimStartIteration = xstream.DefaultSim(), TrimEveryIteration
			pin, err := Run(vol, m.Name, o)
			check("fastbfs(trim every iteration)", pin, err)
			assertSameResult(t, label+" against the static rule", fb, pin)
			if counted {
				checkKeptHalf(t, label, fb, col.Events())
			}
			base.Sim = xstream.DefaultSim()
			xs, err := xstream.Run(vol, m.Name, base)
			check("xstream", xs, err)
			base.Sim = xstream.DefaultSim()
			gc, err := graphchi.Run(vol, m.Name, base)
			check("graphchi", gc, err)
		}
	}
}

// TestEnginesAgreeAcrossDirections is the direction-equivalence
// property: over 50 random graphs spanning the same families as the
// worker sweep, FastBFS — trimming by the counts, which streams the stored
// file until its split pass and keeps its levels in logs, and on the
// paper's threshold, which splits up front and keeps vertex files — and
// X-Stream produce BFS output byte-identical to the first run's top-down
// baseline — same levels AND same parents — under every direction mode
// {topdown, bottomup, auto} and worker count {1, 4, 8}, with the update
// filter off on every other graph (a log then holds every update, its
// first one per vertex the winner). The bottom-up and stored passes'
// winner rule is defined to reproduce top-down's deterministic parent
// choice exactly, so any divergence is a bug, not a tie-break artifact. GraphChi has no bottom-up mode and closes the
// cross-engine loop with its top-down run against the reference.
func TestEnginesAgreeAcrossDirections(t *testing.T) {
	directions := []xstream.Direction{xstream.DirectionTopDown, xstream.DirectionBottomUp, xstream.DirectionAuto}
	workerCounts := []int{1, 4, 8}
	rng := rand.New(rand.NewSource(7))
	const numGraphs = 50
	for g := 0; g < numGraphs; g++ {
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
		m.Name = fmt.Sprintf("dsweep%02d", g)

		vol := storage.NewMem()
		if err := graph.Store(vol, m, edges); err != nil {
			t.Fatalf("graph %d: %v", g, err)
		}
		root := graph.VertexID(rng.Intn(int(m.Vertices)))
		ref, err := bfs.Run(m, edges, root)
		if err != nil {
			t.Fatalf("graph %d: reference: %v", g, err)
		}
		budget := uint64(512 + rng.Intn(3584))
		if g%5 == 4 {
			budget = 1 << 20
		}
		partitions := 1 + rng.Intn(7)
		bufSize := 128 + rng.Intn(384)

		check := func(label string, res *xstream.Result, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("graph %d %s: %v", g, label, err)
			}
			got := &bfs.Result{Root: root, Level: res.Levels, Parent: res.Parents, Visited: res.Visited}
			if e := bfs.Equal(ref, got); e != nil {
				t.Fatalf("graph %d %s: %v", g, label, e)
			}
			if e := bfs.Validate(m, edges, got); e != nil {
				t.Fatalf("graph %d %s: invalid tree: %v", g, label, e)
			}
		}
		// identical asserts byte-identity against the engine's own
		// top-down baseline — levels and parents, not just levels.
		identical := func(label string, got, want *xstream.Result) {
			t.Helper()
			for i := range got.Levels {
				if got.Levels[i] != want.Levels[i] || got.Parents[i] != want.Parents[i] {
					t.Fatalf("graph %d %s: diverged from top-down baseline at vertex %d: level %d/%d parent %d/%d",
						g, label, i, got.Levels[i], want.Levels[i], got.Parents[i], want.Parents[i])
				}
			}
		}

		var fbBase *xstream.Result
		for _, d := range directions {
			for _, w := range workerCounts {
				base := xstream.Options{
					Root: root, MemoryBudget: budget, Partitions: partitions,
					StreamBufSize: bufSize, ScatterWorkers: w, Direction: d, DisableUpdateFilter: g%2 == 1,
				}
				for _, trimStart := range []int{0, TrimEveryIteration} {
					label := fmt.Sprintf("fastbfs(dir=%s,workers=%d,trimstart=%d)", d, w, trimStart)
					o := Options{Base: base, TrimStartIteration: trimStart}
					o.Base.Sim = xstream.DefaultSim()
					fb, err := Run(vol, m.Name, o)
					check(label, fb, err)
					checkTrimRows(t, fmt.Sprintf("graph %d %s", g, label), fb, countsTrims(m, o))
					if fbBase == nil {
						fbBase = fb
					} else {
						identical(label, fb, fbBase)
					}
				}
				label := fmt.Sprintf("xstream(dir=%s,workers=%d)", d, w)
				base.Sim = xstream.DefaultSim()
				xs, err := xstream.Run(vol, m.Name, base)
				check(label, xs, err)
				identical(label, xs, fbBase)
			}
		}
		gc, err := graphchi.Run(vol, m.Name, xstream.Options{
			Root: root, MemoryBudget: budget, Partitions: partitions,
			StreamBufSize: bufSize, Sim: xstream.DefaultSim(),
		})
		check("graphchi", gc, err)
	}
}

// TestEnginesAgreeOnScaleFreeGraphs repeats the agreement check on the
// skewed graphs the paper evaluates, including the symmetrized one.
func TestEnginesAgreeOnScaleFreeGraphs(t *testing.T) {
	graphs := []func() (graph.Meta, []graph.Edge, error){
		func() (graph.Meta, []graph.Edge, error) { return gen.RMAT(9, 8, gen.Graph500(), 3) },
		func() (graph.Meta, []graph.Edge, error) { return gen.TwitterLike(8, 4) },
		func() (graph.Meta, []graph.Edge, error) { return gen.FriendsterLike(8, 5) },
	}
	for _, g := range graphs {
		m, edges, err := g()
		if err != nil {
			t.Fatal(err)
		}
		m, edges = gen.AddTendrils(m, edges, 4, 7, m.Undirected, 9)
		vol := storage.NewMem()
		if err := graph.Store(vol, m, edges); err != nil {
			t.Fatal(err)
		}
		root := maxDegreeVertex(m, edges)
		ref, err := bfs.Run(m, edges, root)
		if err != nil {
			t.Fatal(err)
		}
		base := xstream.Options{Root: root, MemoryBudget: 8192, StreamBufSize: 512, Sim: xstream.DefaultSim()}

		fb, err := Run(vol, m.Name, Options{Base: base})
		if err != nil {
			t.Fatalf("%s fastbfs: %v", m.Name, err)
		}
		base.Sim = xstream.DefaultSim()
		xs, err := xstream.Run(vol, m.Name, base)
		if err != nil {
			t.Fatalf("%s xstream: %v", m.Name, err)
		}
		base.Sim = xstream.DefaultSim()
		gc, err := graphchi.Run(vol, m.Name, base)
		if err != nil {
			t.Fatalf("%s graphchi: %v", m.Name, err)
		}
		for name, res := range map[string]*xstream.Result{"fastbfs": fb, "xstream": xs, "graphchi": gc} {
			got := &bfs.Result{Root: root, Level: res.Levels, Parent: res.Parents, Visited: res.Visited}
			if err := bfs.Equal(ref, got); err != nil {
				t.Fatalf("%s on %s: %v", name, m.Name, err)
			}
			if err := bfs.Validate(m, edges, got); err != nil {
				t.Fatalf("%s on %s: invalid tree: %v", name, m.Name, err)
			}
		}
	}
}
