package xstream

import (
	"bytes"
	"errors"
	"testing"

	"fastbfs/internal/errs"
	"fastbfs/internal/gen"
	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
)

func TestParseDirection(t *testing.T) {
	for s, want := range map[string]Direction{
		"": DirectionTopDown, "topdown": DirectionTopDown,
		"bottomup": DirectionBottomUp, "auto": DirectionAuto,
	} {
		got, err := ParseDirection(s)
		if err != nil || got != want {
			t.Errorf("ParseDirection(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"up", "down", "Auto", "hybrid"} {
		if _, err := ParseDirection(s); !errors.Is(err, errs.ErrBadOptions) {
			t.Errorf("ParseDirection(%q) = %v, want ErrBadOptions", s, err)
		}
	}
}

func TestDirStateHeuristic(t *testing.T) {
	rt := &Runtime{Meta: graph.Meta{Vertices: 1000, Edges: 10000}}
	ds := NewDirState(rt, DirectionAuto)
	if ds.Decide(0) {
		t.Fatal("iteration 0 must be top-down")
	}
	// Tiny candidate wave: stay top-down.
	ds.RecordFrontier(1, 5, true)
	ds.RecordScatter(5, 30)
	if ds.Decide(1) {
		t.Fatal("small candidate wave switched to bottom-up")
	}
	// Growing wave whose targets dominate the unexplored edges: α fires.
	ds.RecordFrontier(5, 30, true)
	ds.RecordScatter(400, 6000)
	if !ds.Decide(2) {
		t.Fatal("α did not fire on a dominant candidate wave")
	}
	if ds.SwitchIteration != 2 || ds.Switches != 1 {
		t.Fatalf("switch accounting = iter %d, %d switches", ds.SwitchIteration, ds.Switches)
	}
	// Frontier still large: β keeps bottom-up.
	ds.RecordFrontier(500, 3000, true)
	if !ds.Decide(3) {
		t.Fatal("β fired while the frontier was large")
	}
	// Frontier collapsed below vertices/β: back to top-down.
	ds.RecordFrontier(10, 40, true)
	if ds.Decide(4) {
		t.Fatal("β did not fire on a collapsed frontier")
	}
	// Shrinking tail wave: the growth guard must hold top-down even
	// though the unexplored estimate is nearly drained.
	ds.RecordFrontier(10, 40, false)
	ds.RecordScatter(20, 200)
	if ds.Decide(5) {
		t.Fatal("α re-fired on a shrinking tail wave")
	}
	if ds.Switches != 2 || ds.BottomUpIters != 2 {
		t.Fatalf("switches = %d, bottom-up iters = %d", ds.Switches, ds.BottomUpIters)
	}
}

// TestDirStateStoredPrice: while a top-down pass would read the whole
// stored edge file, β holds bottom-up on a collapsed frontier until the
// held passes have read that many edges, then drops back; passes it did
// not hold pay nothing.
func TestDirStateStoredPrice(t *testing.T) {
	rt := &Runtime{Meta: graph.Meta{Vertices: 1000, Edges: 10000}}
	ds := NewDirState(rt, DirectionAuto)
	ds.StoredPrice = float64(rt.Meta.Edges)
	ds.Decide(0)
	ds.RecordFrontier(5, 30, true)
	ds.RecordScatter(400, 6000)
	if !ds.Decide(1) {
		t.Fatal("α did not fire on a dominant candidate wave")
	}
	ds.RecordFrontier(500, 3000, true)
	ds.RecordBottomUp(9000) // β did not hold this pass: it pays nothing
	for iter, read := range []int64{6000, 4000} {
		ds.RecordFrontier(10, 40, true)
		if !ds.Decide(2 + iter) {
			t.Fatalf("iteration %d: β dropped to a stored pass with %.0f edges of it unpaid", 2+iter, ds.StoredPrice)
		}
		ds.RecordBottomUp(read)
	}
	ds.RecordFrontier(10, 40, true)
	if ds.Decide(4) {
		t.Fatal("β held bottom-up after the held passes read the stored file's edges")
	}
}

func TestDirStateForcedModes(t *testing.T) {
	rt := &Runtime{Meta: graph.Meta{Vertices: 100, Edges: 500}}
	td := NewDirState(rt, DirectionTopDown)
	bu := NewDirState(rt, DirectionBottomUp)
	for iter := 0; iter < 5; iter++ {
		if td.Decide(iter) {
			t.Fatalf("forced topdown went bottom-up at %d", iter)
		}
		if got, want := bu.Decide(iter), iter > 0; got != want {
			t.Fatalf("forced bottomup at iter %d = %v, want %v", iter, got, want)
		}
		td.RecordFrontier(50, 100, true)
		bu.RecordFrontier(50, 100, true)
	}
}

// runDir runs xstream on the stored graph with the given direction.
func runDir(t *testing.T, vol storage.Volume, name string, root graph.VertexID, d Direction) *Result {
	t.Helper()
	return runDirFilter(t, vol, name, root, d, false)
}

// runDirFilter is runDir with the update filter optionally pinned off.
func runDirFilter(t *testing.T, vol storage.Volume, name string, root graph.VertexID, d Direction, noFilter bool) *Result {
	t.Helper()
	o := smallOpts()
	o.Root = root
	o.Direction = d
	o.DisableUpdateFilter = noFilter
	res, err := Run(vol, name, o)
	if err != nil {
		t.Fatalf("direction %s: %v", d, err)
	}
	return res
}

func sameTree(t *testing.T, a, b *Result, label string) {
	t.Helper()
	for i := range a.Levels {
		if a.Levels[i] != b.Levels[i] || a.Parents[i] != b.Parents[i] {
			t.Fatalf("%s: vertex %d: level %d/%d parent %d/%d", label, i,
				a.Levels[i], b.Levels[i], a.Parents[i], b.Parents[i])
		}
	}
	if a.Visited != b.Visited {
		t.Fatalf("%s: visited %d vs %d", label, a.Visited, b.Visited)
	}
}

func TestXStreamDirectionsByteIdentical(t *testing.T) {
	m, edges, err := gen.RMAT(8, 8, gen.Graph500(), 42)
	if err != nil {
		t.Fatal(err)
	}
	vol := storage.NewMem()
	if err := graph.Store(vol, m, edges); err != nil {
		t.Fatal(err)
	}
	root := maxDegreeVertex(m, edges)
	td := runDir(t, vol, m.Name, root, DirectionTopDown)
	bu := runDir(t, vol, m.Name, root, DirectionBottomUp)
	au := runDir(t, vol, m.Name, root, DirectionAuto)
	sameTree(t, td, bu, "bottomup vs topdown")
	sameTree(t, td, au, "auto vs topdown")
	if td.Metrics.BottomUpIterations != 0 || td.Metrics.SwitchIteration != -1 {
		t.Fatalf("topdown ran %d bottom-up iterations", td.Metrics.BottomUpIterations)
	}
	if bu.Metrics.BottomUpIterations == 0 || bu.Metrics.SwitchIteration != 1 {
		t.Fatalf("forced bottomup: %d bottom-up iterations, switch at %d",
			bu.Metrics.BottomUpIterations, bu.Metrics.SwitchIteration)
	}
	if au.Metrics.BottomUpIterations == 0 {
		t.Fatal("auto never switched on a power-law graph")
	}
	// The byte win is α = 14's premise — a top-down that pays for every
	// failed edge check — so it is asserted with the update filter off on
	// both sides, as internal/bench pins it. Against a filtered top-down
	// and delta working files auto moves more bytes than top-down at every
	// scale probed; re-tuning α for that is ROADMAP item 3's.
	tdAll := runDirFilter(t, vol, m.Name, root, DirectionTopDown, true)
	auAll := runDirFilter(t, vol, m.Name, root, DirectionAuto, true)
	sameTree(t, td, auAll, "unfiltered auto vs topdown")
	if auAll.Metrics.BottomUpIterations != au.Metrics.BottomUpIterations || auAll.Metrics.SwitchIteration != au.Metrics.SwitchIteration {
		t.Fatalf("the update filter moved the switch: %d bottom-up iterations from %d with it, %d from %d without",
			au.Metrics.BottomUpIterations, au.Metrics.SwitchIteration, auAll.Metrics.BottomUpIterations, auAll.Metrics.SwitchIteration)
	}
	if auAll.Metrics.TotalBytes() >= tdAll.Metrics.TotalBytes() {
		t.Fatalf("auto moved %d bytes, top-down %d — no win", auAll.Metrics.TotalBytes(), tdAll.Metrics.TotalBytes())
	}
}

func TestXStreamAutoFallsBackWithoutReverse(t *testing.T) {
	m, edges, _ := gen.BinaryTree(200)
	vol := storage.NewMem()
	if err := graph.Store(vol, m, edges); err != nil {
		t.Fatal(err)
	}
	td := runDir(t, vol, m.Name, 0, DirectionTopDown)
	vol.Remove(graph.ReverseFileName(m.Name)) // a graph stored before .rev existed
	au := runDir(t, vol, m.Name, 0, DirectionAuto)
	sameTree(t, td, au, "auto-fallback vs topdown")
	if !au.Metrics.DirectionFallback {
		t.Fatal("fallback not reported in metrics")
	}
	if au.Metrics.BottomUpIterations != 0 {
		t.Fatal("fallback run still went bottom-up")
	}
	o := smallOpts()
	o.Direction = DirectionBottomUp
	if _, err := Run(vol, m.Name, o); !errors.Is(err, errs.ErrBadOptions) {
		t.Fatalf("explicit bottomup without .rev: err = %v, want ErrBadOptions", err)
	}
}

func TestXStreamCorruptReverseSurfacesErrCorrupted(t *testing.T) {
	m, edges, err := gen.RMAT(8, 8, gen.Graph500(), 5)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte in either file of the transposed graph: a CRC
	// must catch it during the lazy reverse split, never wrong output. (A
	// tree's .rev holds no records to corrupt: its every in-edge is a head.)
	for _, name := range []string{graph.ReverseFileName(m.Name), graph.ReverseIndexFileName(m.Name)} {
		vol := storage.NewMem()
		if err := graph.Store(vol, m, edges); err != nil {
			t.Fatal(err)
		}
		b, err := storage.ReadAll(vol, name)
		if err != nil {
			t.Fatal(err)
		}
		b = bytes.Clone(b)
		b[len(b)/2] ^= 0x40
		if err := storage.WriteAll(vol, name, b); err != nil {
			t.Fatal(err)
		}
		o := smallOpts()
		o.Direction = DirectionBottomUp
		if _, err := Run(vol, m.Name, o); !errors.Is(err, errs.ErrCorrupted) {
			t.Fatalf("corrupt %s: err = %v, want ErrCorrupted", name, err)
		}
	}
}
