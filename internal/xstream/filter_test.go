package xstream

import (
	"math/rand"
	"slices"
	"testing"

	"fastbfs/internal/gen"
	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
	"fastbfs/internal/stream"
)

func TestBitsetClaim(t *testing.T) {
	b := NewBitset(130)
	for _, v := range []graph.VertexID{0, 63, 64, 129} {
		if !b.Claim(v) {
			t.Fatalf("first Claim(%d) lost", v)
		}
		if b.Claim(v) || !b.Get(v) {
			t.Fatalf("second Claim(%d) won, or the bit is not set", v)
		}
	}
	if b.Get(1) || b.Get(65) {
		t.Fatal("Claim marked a neighbour")
	}
}

// filterRuntime stores a small graph and returns a prepared runtime.
func filterRuntime(t *testing.T, opts Options) *Runtime {
	t.Helper()
	m, edges, err := gen.RMAT(7, 8, gen.Graph500(), 3)
	if err != nil {
		t.Fatal(err)
	}
	vol := storage.NewMem()
	if err := graph.StoreGraph(vol, m, edges, graph.StoreOptions{Reverse: true}); err != nil {
		t.Fatal(err)
	}
	opts.MemoryBudget, opts.Partitions, opts.StreamBufSize = 4096, 4, 256
	opts.SetDefaults(EngineName)
	rt, err := NewRuntime(vol, m.Name, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Cleanup)
	// A degree table whatever the direction, as a run trimming by the edge
	// counts keeps: a top-down filter must still sum no candidate degrees.
	rt.allocOutDeg()
	if _, err := rt.Prepare(); err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestUpdateFilterFirstClaimIsFirstWins feeds random update waves through
// Emit and Flush, cut into shards at random, and applies what reaches the
// update files with the gather's first-wins rule: the parents must be the
// ones the unfiltered wave gives, every written update must be the first
// for an unvisited vertex, and the counts the direction heuristic reads
// must not notice the filter.
func TestUpdateFilterFirstClaimIsFirstWins(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, dir := range []Direction{DirectionTopDown, DirectionAuto} {
		on := filterRuntime(t, Options{Direction: dir})
		off := filterRuntime(t, Options{Direction: dir, DisableUpdateFilter: true})
		if off.VisitedBits == nil || off.claimed != nil {
			t.Fatalf("dir %s, filter off: VisitedBits %v, claimed %v", dir, off.VisitedBits, off.claimed)
		}
		V := graph.VertexID(on.Meta.Vertices)
		fOn, fOff := on.NewUpdateFilter(dir), off.NewUpdateFilter(dir)
		parentOn, parentOff := make([]graph.VertexID, V), make([]graph.VertexID, V)
		for i := range parentOn {
			parentOn[i], parentOff[i] = graph.NoVertex, graph.NoVertex
		}
		for wave := 0; wave < 6; wave++ {
			edges := make([]graph.Edge, 200+rng.Intn(400))
			for i := range edges {
				edges[i] = graph.Edge{Src: graph.VertexID(rng.Intn(int(V))), Dst: graph.VertexID(rng.Intn(int(V)))}
			}
			fOn.Wave, fOff.Wave = Wave{}, Wave{}
			got, want := shuffleWave(t, on, fOn, edges, rng), shuffleWave(t, off, fOff, edges, rng)
			if fOn.Wave.Emitted != int64(len(edges)) || fOn.Wave.Emitted != fOff.Wave.Emitted || fOn.Wave.CandDeg != fOff.Wave.CandDeg {
				t.Fatalf("dir %s wave %d: filtered %+v, unfiltered %+v over %d edges", dir, wave, fOn.Wave, fOff.Wave, len(edges))
			}
			if fOff.Wave.Filtered() != 0 || fOff.Wave.Written != int64(len(want)) || fOn.Wave.Written != int64(len(got)) {
				t.Fatalf("dir %s wave %d: wrote %d/%d updates, waves say %+v / %+v", dir, wave, len(got), len(want), fOn.Wave, fOff.Wave)
			}
			if (fOn.Wave.CandDeg != 0) != (dir != DirectionTopDown) {
				t.Fatalf("dir %s: candidate out-degree sum %d", dir, fOn.Wave.CandDeg)
			}
			// The gather, for both: first update to an unvisited vertex wins.
			for _, u := range got {
				if parentOn[u.Dst] != graph.NoVertex {
					t.Fatalf("dir %s wave %d: update %v passed the filter, vertex already has parent %d", dir, wave, u, parentOn[u.Dst])
				}
				parentOn[u.Dst] = u.Parent
				on.VisitedBits.Set(u.Dst)
			}
			for _, u := range want {
				if parentOff[u.Dst] == graph.NoVertex {
					parentOff[u.Dst] = u.Parent
				}
			}
			if !slices.Equal(parentOn, parentOff) {
				t.Fatalf("dir %s wave %d: the filter changed a parent", dir, wave)
			}
		}
	}
}

// shuffleWave sends one wave of frontier out-edges through the filter in
// randomly sized shards and returns the updates that reached the update
// files, concatenated in partition order — the order the gathers run in.
func shuffleWave(t *testing.T, rt *Runtime, f *UpdateFilter, edges []graph.Edge, rng *rand.Rand) []graph.Update {
	t.Helper()
	sh, err := stream.NewShuffler(rt.Vol, rt.Parts, rt.AuxTiming(), rt.Opts.StreamBufSize,
		func(p int) string { return rt.UpdateFile(0, p) })
	if err != nil {
		t.Fatal(err)
	}
	for len(edges) > 0 {
		n := 1 + rng.Intn(len(edges))
		s := &stream.Shard{ByPart: make([][]graph.Update, rt.Parts.P())}
		for _, e := range edges[:n] {
			f.Emit(s, e)
		}
		if _, err := f.Flush(s, sh); err != nil {
			t.Fatal(err)
		}
		edges = edges[n:]
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	var out []graph.Update
	for p := 0; p < rt.Parts.P(); p++ {
		sc, err := stream.NewUpdateScanner(rt.Vol, rt.UpdateFile(0, p), rt.AuxTiming(), rt.Opts.StreamBufSize)
		if err != nil {
			t.Fatal(err)
		}
		for {
			u, ok, err := sc.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			out = append(out, u)
		}
		sc.Close()
	}
	return out
}
