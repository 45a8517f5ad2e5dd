package core

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"fastbfs/internal/errs"
	"fastbfs/internal/gen"
	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

// Direction tests: the hybrid top-down/bottom-up engine must be
// byte-identical to pure top-down (same levels, same parents — the
// deterministic min-(source partition, original position) winner rule),
// strictly cheaper on device bytes for power-law graphs, invariant
// under worker count, and fail-stop on reverse-input corruption.

func runDirection(t *testing.T, vol storage.Volume, name string, opts Options) *Result {
	t.Helper()
	res, err := Run(vol, name, opts)
	if err != nil {
		t.Fatalf("direction %s: %v", opts.Base.Direction, err)
	}
	return res
}

func assertSameTree(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Visited != b.Visited {
		t.Fatalf("%s: visited %d vs %d", label, a.Visited, b.Visited)
	}
	if !slices.Equal(a.Levels, b.Levels) {
		t.Fatalf("%s: levels differ", label)
	}
	if !slices.Equal(a.Parents, b.Parents) {
		t.Fatalf("%s: parents differ", label)
	}
}

func TestFastBFSDirectionsByteIdentical(t *testing.T) {
	// Scale 12 is the acceptance point: a Graph500 RMAT component large
	// enough that the bottom-up phase pays for the reverse split.
	m, edges, err := gen.RMAT(12, 8, gen.Graph500(), 42)
	if err != nil {
		t.Fatal(err)
	}
	root := maxDegreeVertex(m, edges)

	optsFor := func(d xstream.Direction) Options {
		o := smallOpts()
		o.Base.Direction = d
		return o
	}
	// Top-down is checked against the in-memory reference; the other
	// modes must then match top-down exactly, not just validate.
	td := checkAgainstReference(t, m, edges, root, optsFor(xstream.DirectionTopDown))
	bu := checkAgainstReference(t, m, edges, root, optsFor(xstream.DirectionBottomUp))
	au := checkAgainstReference(t, m, edges, root, optsFor(xstream.DirectionAuto))
	assertSameTree(t, "bottomup vs topdown", bu, td)
	assertSameTree(t, "auto vs topdown", au, td)

	if td.Metrics.BottomUpIterations != 0 || td.Metrics.SwitchIteration != -1 {
		t.Fatalf("topdown ran %d bottom-up iterations", td.Metrics.BottomUpIterations)
	}
	if bu.Metrics.SwitchIteration != 1 {
		t.Fatalf("forced bottomup switched at %d, want 1", bu.Metrics.SwitchIteration)
	}
	if au.Metrics.BottomUpIterations == 0 {
		t.Fatal("auto never switched on a power-law graph")
	}

	// The acceptance bound: auto must move at least 30% fewer device
	// bytes than the paper's top-down — the one that shuffles every
	// frontier out-edge's update — at this scale. The update filter
	// removes most of the same dead work from the top-down side, so
	// against a filtered top-down auto's margin is smaller: it must still
	// not lose. Trimming by the counts, both skip the up-front split, and
	// β prices a top-down pass over the stored file at the file; under the
	// paper's threshold both split up front. Each bound holds under both.
	for _, paper := range []bool{false, true} {
		dirOpts := func(d xstream.Direction) Options {
			o := optsFor(d)
			if paper {
				o.TrimStartIteration = TrimEveryIteration
			}
			return o
		}
		unf := dirOpts(xstream.DirectionTopDown)
		unf.Base.DisableUpdateFilter = true
		unfiltered := checkAgainstReference(t, m, edges, root, unf)
		assertSameTree(t, "unfiltered vs filtered topdown", unfiltered, td)
		ftd, fau := td, au
		if paper {
			ftd = checkAgainstReference(t, m, edges, root, dirOpts(xstream.DirectionTopDown))
			fau = checkAgainstReference(t, m, edges, root, dirOpts(xstream.DirectionAuto))
			assertSameTree(t, "auto vs topdown, paper's threshold", fau, ftd)
		}
		auBytes := fau.Metrics.TotalBytes()
		if tdBytes := unfiltered.Metrics.TotalBytes(); float64(auBytes) > 0.70*float64(tdBytes) {
			t.Fatalf("paper=%v: auto moved %d device bytes, unfiltered top-down %d — reduction %.1f%%, want >= 30%%",
				paper, auBytes, tdBytes, 100*(1-float64(auBytes)/float64(tdBytes)))
		}
		if tdBytes := ftd.Metrics.TotalBytes(); auBytes > tdBytes {
			t.Fatalf("paper=%v: auto moved %d device bytes, filtered top-down only %d", paper, auBytes, tdBytes)
		}
		t.Logf("paper=%v: auto vs top-down device bytes: -%.1f%% unfiltered, -%.1f%% filtered", paper,
			100*(1-float64(auBytes)/float64(unfiltered.Metrics.TotalBytes())),
			100*(1-float64(auBytes)/float64(ftd.Metrics.TotalBytes())))
	}

	// Reverse-stay trimming must engage: after the fused first pass,
	// every later bottom-up iteration reads a winner-filtered input
	// strictly smaller than the full reverse file.
	sawTrimmedBottomUp := false
	for _, it := range au.Metrics.Iterations {
		if it.BottomUp && it.Index > au.Metrics.SwitchIteration {
			if it.EdgesStreamed >= int64(m.Edges) {
				t.Fatalf("bottom-up iteration %d rescanned the full reverse file (%d edges)",
					it.Index, it.EdgesStreamed)
			}
			sawTrimmedBottomUp = true
		}
	}
	if !sawTrimmedBottomUp {
		t.Fatal("no bottom-up iteration after the switch — trimming untested")
	}
}

func TestFastBFSDirectionWorkerInvariance(t *testing.T) {
	// The bottom-up merge runs on the engine thread in strict chunk
	// order, so worker count must change neither the tree nor a single
	// simulated byte or second.
	m, edges, err := gen.RMAT(10, 8, gen.Graph500(), 42)
	if err != nil {
		t.Fatal(err)
	}
	vol := storage.NewMem()
	if err := graph.Store(vol, m, edges); err != nil {
		t.Fatal(err)
	}
	root := maxDegreeVertex(m, edges)

	base := func() Options {
		o := smallOpts()
		o.Base.Root = root
		o.Base.Direction = xstream.DirectionAuto
		return o
	}
	ref := runDirection(t, vol, m.Name, base())
	if ref.Metrics.BottomUpIterations == 0 {
		t.Fatal("auto stayed top-down; invariance test needs bottom-up iterations")
	}
	for _, w := range []int{2, 8} {
		o := base()
		o.Base.ScatterWorkers = w
		got := runDirection(t, vol, m.Name, o)
		assertSameTree(t, "workers", got, ref)
		if got.Metrics.TotalBytes() != ref.Metrics.TotalBytes() {
			t.Fatalf("workers=%d moved %d bytes, workers=1 moved %d",
				w, got.Metrics.TotalBytes(), ref.Metrics.TotalBytes())
		}
		if got.Metrics.ExecTime != ref.Metrics.ExecTime {
			t.Fatalf("workers=%d simulated %.6fs, workers=1 %.6fs",
				w, got.Metrics.ExecTime, ref.Metrics.ExecTime)
		}
	}
}

func TestFastBFSAutoFallsBackWithoutReverse(t *testing.T) {
	// A graph stored before the reverse partition existed must stay
	// loadable: auto degrades to pure top-down and says so in metrics.
	vol, m := storedGraph(t)
	o := smallOpts()
	o.Base.Direction = xstream.DirectionTopDown
	td := runDirection(t, vol, m.Name, o)

	vol.Remove(graph.ReverseFileName(m.Name))
	o = smallOpts()
	o.Base.Direction = xstream.DirectionAuto
	au := runDirection(t, vol, m.Name, o)
	assertSameTree(t, "auto-fallback vs topdown", au, td)
	if !au.Metrics.DirectionFallback {
		t.Fatal("fallback not reported in metrics")
	}
	if au.Metrics.BottomUpIterations != 0 {
		t.Fatal("fallback run still went bottom-up")
	}

	o = smallOpts()
	o.Base.Direction = xstream.DirectionBottomUp
	if _, err := Run(vol, m.Name, o); !errors.Is(err, errs.ErrBadOptions) {
		t.Fatalf("explicit bottomup without .rev: err = %v, want ErrBadOptions", err)
	}
}

func TestFastBFSCorruptReverseFailsStop(t *testing.T) {
	// Unlike forward stay corruption (which falls back to the retained
	// input), a corrupt reverse input has no safe fallback mid-pass: the
	// run must fail with ErrCorrupted, never emit a wrong tree.
	vol, m := storedGraph(t)
	name := graph.ReverseFileName(m.Name)
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
	o.Base.Direction = xstream.DirectionBottomUp
	if _, err := Run(vol, m.Name, o); !errors.Is(err, errs.ErrCorrupted) {
		t.Fatalf("corrupt .rev: err = %v, want ErrCorrupted", err)
	}
}
