package core_test

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"slices"
	"testing"

	"fastbfs/internal/algo"
	"fastbfs/internal/core"
	"fastbfs/internal/errs"
	"fastbfs/internal/gen"
	"fastbfs/internal/graph"
	"fastbfs/internal/graphchi"
	"fastbfs/internal/storage"
	"fastbfs/internal/stream"
	"fastbfs/internal/xstream"
)

// TestStoredReadersRejectDamagedEdges: every serial reader of the stored
// edge file reads it through xstream.ScanStored, so each finds the same
// damage — an endpoint outside the vertex space, a source below the one
// before it (a file stored before edges were sorted by source) and a
// record past or short of the count the config declares — and reports it
// as errs.ErrCorrupted with every stream buffer back: the resident open,
// the one-shot run, X-Stream and FastBFS without trimming out of core
// (Prepare), GraphChi's sharding pass and the algo engine's edge walk.
// FastBFS's default run reads the file in its split passes instead, top
// down and with direction auto, and finds the same damage on both stores.
func TestStoredReadersRejectDamagedEdges(t *testing.T) {
	audit := stream.AuditPools()
	defer audit.Stop()
	m, edges, err := gen.RMAT(8, 8, gen.Graph500(), 13)
	if err != nil {
		t.Fatal(err)
	}
	slices.SortStableFunc(edges, func(a, b graph.Edge) int { return cmp.Compare(a.Src, b.Src) })
	root, last := edges[0].Src, len(edges)-1
	ooc := xstream.Options{Root: root, MemoryBudget: 4096, Partitions: 4, StreamBufSize: 256, Sim: xstream.DefaultSim()}
	readers := []struct {
		name string
		run  func(vol storage.Volume) error
	}{
		{"LoadPrepared", func(vol storage.Volume) error {
			_, err := xstream.LoadPrepared(context.Background(), vol, m.Name, xstream.Options{MemoryBudget: 1 << 20})
			return err
		}},
		{"one-shot run", func(vol storage.Volume) error {
			_, err := xstream.Run(vol, m.Name, xstream.Options{Root: root, MemoryBudget: 1 << 20})
			return err
		}},
		{"xstream out of core", func(vol storage.Volume) error {
			_, err := xstream.Run(vol, m.Name, ooc)
			return err
		}},
		{"fastbfs, trimming off", func(vol storage.Volume) error {
			_, err := core.Run(vol, m.Name, core.Options{Base: ooc, DisableTrimming: true})
			return err
		}},
		{"fastbfs, stored passes", func(vol storage.Volume) error {
			_, err := core.Run(vol, m.Name, core.Options{Base: ooc})
			return err
		}},
		{"fastbfs, direction auto", func(vol storage.Volume) error {
			auto := ooc
			auto.Direction = xstream.DirectionAuto
			_, err := core.Run(vol, m.Name, core.Options{Base: auto})
			return err
		}},
		{"graphchi", func(vol storage.Volume) error {
			_, err := graphchi.Run(vol, m.Name, ooc)
			return err
		}},
		{"algo out of core", func(vol storage.Volume) error {
			_, err := algo.Run(vol, m.Name, algo.NewBFS(root), ooc)
			return err
		}},
	}
	check := func(damage string, vol storage.Volume) {
		t.Helper()
		for _, r := range readers {
			if err := r.run(vol); !errors.Is(err, errs.ErrCorrupted) {
				t.Errorf("%s: %s: err = %v, want ErrCorrupted", damage, r.name, err)
			}
			if n := audit.Outstanding(); n != 0 {
				t.Fatalf("%s: %s: %d stream buffers outstanding after the failed run", damage, r.name, n)
			}
		}
	}

	vol := storage.NewMem()
	if err := graph.Store(vol, m, edges); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		damage func([]graph.Edge) []graph.Edge
	}{
		// A fixed-width file's size already gives this one away to the
		// config check, before any edge is read.
		{"trailing record", func(es []graph.Edge) []graph.Edge { return append(es, es[last]) }},
		{"out-of-range endpoint", func(es []graph.Edge) []graph.Edge { es[len(es)/2].Dst = graph.VertexID(m.Vertices); return es }},
		{"descending source", func(es []graph.Edge) []graph.Edge { es[0], es[last] = es[last], es[0]; return es }},
		// Sorted within every 32-edge chunk of a 256 B buffer, descending
		// only where two chunks meet.
		{"descending across chunks", func(es []graph.Edge) []graph.Edge { return slices.Concat(es[len(es)-64:], es[:len(es)-64]) }},
	} {
		if err := storage.WriteAll(vol, graph.EdgeFileName(m.Name), graph.EdgesToBytes(c.damage(slices.Clone(edges)))); err != nil {
			t.Fatal(err)
		}
		check(c.name, vol)
	}
	// Below the in-memory budget the edge file is not read at open.
	if pg, err := xstream.LoadPrepared(context.Background(), vol, m.Name, xstream.Options{MemoryBudget: 4096}); err != nil || pg.Resident() {
		t.Fatalf("non-resident open of a damaged edge file: %v", err)
	}

	// A delta config records its file's bytes, not a size the count implies:
	// a file whose frames decode to a record more or fewer than the config's
	// count passes the config check and is caught by the reader's own.
	dvol := storage.NewMem()
	if err := graph.StoreGraph(dvol, m, edges, graph.StoreOptions{Codec: graph.CodecDelta, Reverse: true}); err != nil {
		t.Fatal(err)
	}
	dm, err := graph.LoadMeta(dvol, m.Name)
	if err != nil {
		t.Fatal(err)
	}
	stored := func(es []graph.Edge) []byte {
		tmp, tm := storage.NewMem(), dm
		tm.Edges = uint64(len(es))
		if err := graph.StoreGraph(tmp, tm, es, graph.StoreOptions{Codec: graph.CodecDelta}); err != nil {
			t.Fatal(err)
		}
		file, err := storage.ReadAll(tmp, graph.EdgeFileName(m.Name))
		if err != nil {
			t.Fatal(err)
		}
		return file
	}
	// StoreGraph sorts by source, so a descending one is framed here.
	unsorted := func(es []graph.Edge) []byte {
		file, _ := deltaFrames(t, es)
		return file
	}
	swapped := slices.Clone(edges)
	swapped[0], swapped[last] = swapped[last], swapped[0]
	for _, c := range []struct {
		name string
		file []byte
	}{
		{"delta file, one record more", stored(append(slices.Clone(edges), edges[last]))},
		{"delta file, one record fewer", stored(edges[:last])},
		{"delta file, descending source", unsorted(swapped)},
	} {
		conf, declared := new(bytes.Buffer), dm
		declared.StoredBytes = uint64(len(c.file))
		if err := graph.WriteConfig(conf, declared); err != nil {
			t.Fatal(err)
		}
		if err := storage.WriteAll(dvol, graph.EdgeFileName(m.Name), c.file); err != nil {
			t.Fatal(err)
		}
		if err := storage.WriteAll(dvol, graph.ConfFileName(m.Name), conf.Bytes()); err != nil {
			t.Fatal(err)
		}
		check(c.name, dvol)
	}
	checkDroppedRunDamage(t, audit)
	checkChunkDamage(t, audit)
}

// checkChunkDamage: damage the worker that decodes a chunk finds aborts the
// pass at that chunk's merge — an endpoint outside the vertex space in the
// file's last chunk, which the last refill reads, and in a chunk at least
// two into a delta block, a block whose first records went to another
// chunk. Each run, top down and with direction auto, on a fixed and on a
// delta store, ends ErrCorrupted with every stream buffer back and no
// working file left on the volume.
func checkChunkDamage(t *testing.T, audit *stream.PoolAudit) {
	m, edges, err := gen.RMAT(10, 16, gen.Graph500(), 13)
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 32 // records a chunk holds at a 256 B buffer
	for _, codec := range []graph.Codec{graph.CodecFixed, graph.CodecDelta} {
		vol := storage.NewMem()
		if err := graph.StoreGraph(vol, m, edges, graph.StoreOptions{Codec: codec, Reverse: true}); err != nil {
			t.Fatal(err)
		}
		files, name := vol.List(), graph.EdgeFileName(m.Name)
		clean, err := storage.ReadAll(vol, name)
		if err != nil {
			t.Fatal(err)
		}
		raw, sizes := clean, []int(nil)
		if codec == graph.CodecDelta {
			_, blocks, err := graph.DeframeAllMagic(clean)
			if err == nil {
				raw, err = graph.DecodeDeltaStream(blocks)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		recs, err := graph.BytesToEdges(raw)
		if err != nil {
			t.Fatal(err)
		}
		if codec == graph.CodecDelta {
			_, sizes = deltaFrames(t, recs)
		}
		deg := graph.Degrees(m.Vertices, recs)
		hub := graph.VertexID(slices.Index(deg, slices.Max(deg)))
		hubAt := slices.IndexFunc(recs, func(e graph.Edge) bool { return e.Src == hub })
		var last, straddling []int // candidate records, tried in order
		for r := len(recs) - 1; r >= len(recs)-chunk; r-- {
			last = append(last, r)
		}
		for r := hubAt; r < hubAt+int(deg[hub]); r++ {
			if r%graph.IndexFrameEdges >= 2*chunk {
				straddling = append(straddling, r)
			}
		}
		for _, c := range []struct {
			name string
			at   []int
		}{{"the last chunk", last}, {"a straddling block's later chunk", straddling}} {
			var damaged []byte
			var root graph.VertexID
			for _, r := range c.at {
				es := slices.Clone(recs)
				es[r].Dst, root = graph.VertexID(m.Vertices), es[r].Src
				if codec == graph.CodecFixed {
					damaged = graph.EdgesToBytes(es)
					break
				}
				if file, got := deltaFrames(t, es); slices.Equal(got, sizes) {
					damaged = file
					break
				}
			}
			if damaged == nil {
				t.Fatalf("%s: no damage in %s keeps the frames", codec, c.name)
			}
			for _, dir := range []xstream.Direction{xstream.DirectionTopDown, xstream.DirectionAuto} {
				opts := core.Options{Base: xstream.Options{Root: root, MemoryBudget: 4096, Partitions: 4,
					StreamBufSize: chunk * graph.EdgeBytes, Direction: dir}}
				if err := storage.WriteAll(vol, name, clean); err != nil {
					t.Fatal(err)
				}
				if res, err := core.Run(vol, m.Name, opts); err != nil || !res.Metrics.Iterations[0].Stored {
					t.Fatalf("%s, %s: the clean store's run (%v) starts with no stored pass", codec, dir, err)
				}
				if err := storage.WriteAll(vol, name, damaged); err != nil {
					t.Fatal(err)
				}
				if _, err := core.Run(vol, m.Name, opts); !errors.Is(err, errs.ErrCorrupted) {
					t.Errorf("%s, %s, damage in %s: err = %v, want ErrCorrupted", codec, dir, c.name, err)
				}
				if n := audit.Outstanding(); n != 0 {
					t.Fatalf("%s, %s, damage in %s: %d stream buffers outstanding after the failed run", codec, dir, c.name, n)
				}
				if left := vol.List(); !slices.Equal(left, files) {
					t.Errorf("%s, %s, damage in %s: the failed run left %v on the volume, the store %v", codec, dir, c.name, left, files)
				}
			}
		}
	}
}

// checkDroppedRunDamage: damage in a run a pass reads but drops, one whose
// source (a record's target) it does not want, is found before the run is
// passed over, each kind by one per-run check: an endpoint outside the
// vertex space by the run's last destination, a source out of its place by
// the index, and a run past its source's degree by the degree. The reverse
// pass is the first bottom-up one, reading the whole .rev and dropping the
// tails of the targets the root's level visited or their head won; the
// forward one is iteration 0's sparse pass, dropping every other source in
// the frames of the root's edges. Each damage keeps every frame its size, so the index
// still places the frames.
func checkDroppedRunDamage(t *testing.T, audit *stream.PoolAudit) {
	m, edges, err := gen.RMAT(12, 16, gen.Graph500(), 13)
	if err != nil {
		t.Fatal(err)
	}
	vol := storage.NewMem()
	if err := graph.StoreGraph(vol, m, edges, graph.StoreOptions{Codec: graph.CodecDelta, Reverse: true}); err != nil {
		t.Fatal(err)
	}
	slices.SortStableFunc(edges, func(a, b graph.Edge) int { return cmp.Compare(a.Src, b.Src) })
	deg := graph.Degrees(m.Vertices, edges)
	root := graph.VertexID(slices.Index(deg, slices.Max(deg)))
	visited, head := map[graph.VertexID]bool{root: true}, map[graph.VertexID]graph.VertexID{}
	for _, e := range edges { // sorted by source: a target's first in-edge is its head's
		if e.Src == root {
			visited[e.Dst] = true
		}
		if _, ok := head[e.Dst]; !ok {
			head[e.Dst] = e.Src
		}
	}
	type group struct {
		src        graph.VertexID
		start, end int
	}
	kinds := []struct {
		name string
		try  func(es []graph.Edge, g group, h *group) bool // h: a dropped run right after g
	}{
		{"out-of-range endpoint", func(es []graph.Edge, g group, _ *group) bool {
			es[g.end-1].Dst = graph.VertexID(m.Vertices)
			return true
		}},
		{"source out of place", func(es []graph.Edge, g group, h *group) bool {
			if h == nil || g.end-g.start != h.end-h.start {
				return false
			}
			copy(es[g.start:h.end], slices.Concat(es[h.start:h.end], es[g.start:g.end]))
			return true
		}},
		{"run past its degree", func(es []graph.Edge, g group, h *group) bool {
			if h == nil {
				return false
			}
			es[h.start] = es[g.end-1] // h's first record repeats g's last: g's run grows by one
			return true
		}},
	}
	// The first bottom-up pass, at iteration 1, trims: it drops the targets
	// the root's level visited and those whose head is in that level.
	reverse := core.Options{Base: xstream.Options{Root: root, MemoryBudget: 4096, Partitions: 4, StreamBufSize: 256,
		Sim: xstream.DefaultSim(), Direction: xstream.DirectionBottomUp}}
	for _, pass := range []struct {
		name string
		file string
		opts core.Options
		// dropped says whether the pass reads and drops record i's run.
		dropped func(es []graph.Edge, i int) bool
	}{
		{"reverse pass, visited targets", graph.ReverseFileName(m.Name), reverse,
			func(es []graph.Edge, i int) bool { return visited[es[i].Src] }},
		{"reverse pass, head-won targets", graph.ReverseFileName(m.Name), reverse,
			func(es []graph.Edge, i int) bool { return !visited[es[i].Src] && visited[head[es[i].Src]] }},
		{"sparse forward pass", graph.EdgeFileName(m.Name),
			core.Options{Base: xstream.Options{Root: root, MemoryBudget: 4096, Partitions: 4, StreamBufSize: 256}},
			func(es []graph.Edge, i int) bool {
				first, _ := slices.BinarySearchFunc(es, root, func(e graph.Edge, v graph.VertexID) int { return cmp.Compare(e.Src, v) })
				frame := func(j int) int { return j / graph.IndexFrameEdges }
				return es[i].Src != root && frame(i) >= frame(first) && frame(i) <= frame(first+int(deg[root])-1)
			}},
	} {
		clean, err := storage.ReadAll(vol, pass.file)
		if err != nil {
			t.Fatal(err)
		}
		_, blocks, err := graph.DeframeAllMagic(clean)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := graph.DecodeDeltaStream(blocks)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := graph.BytesToEdges(raw)
		if err != nil {
			t.Fatal(err)
		}
		if again, _ := deltaFrames(t, recs); !bytes.Equal(again, clean) {
			t.Fatalf("%s: %s frames differently here", pass.name, pass.file)
		}
		res, err := core.Run(vol, m.Name, pass.opts)
		if err != nil {
			t.Fatalf("%s: clean store: %v", pass.name, err)
		}
		if it := res.Metrics.Iterations[0]; pass.opts.Base.Sim == nil && !(it.Stored && it.Sparse) {
			t.Fatalf("%s: iteration 0 is no sparse stored pass: %+v", pass.name, it)
		}
		var groups []group // the dropped runs' sources, in file order
		for i := 0; i < len(recs); {
			j := i + 1
			for j < len(recs) && recs[j].Src == recs[i].Src {
				j++
			}
			if pass.dropped(recs, i) {
				groups = append(groups, group{recs[i].Src, i, j})
			}
			i = j
		}
		_, sizes := deltaFrames(t, recs)
		for _, k := range kinds {
			var damaged []byte
			for gi := 0; gi < len(groups) && damaged == nil; gi++ {
				var h *group
				if gi+1 < len(groups) && groups[gi+1].start == groups[gi].end {
					h = &groups[gi+1]
				}
				es := slices.Clone(recs)
				if !k.try(es, groups[gi], h) {
					continue
				}
				if file, got := deltaFrames(t, es); slices.Equal(got, sizes) {
					damaged = file
				}
			}
			if damaged == nil {
				t.Fatalf("%s: no %s in a dropped run keeps the frames", pass.name, k.name)
			}
			if err := storage.WriteAll(vol, pass.file, damaged); err != nil {
				t.Fatal(err)
			}
			if _, err := core.Run(vol, m.Name, pass.opts); !errors.Is(err, errs.ErrCorrupted) {
				t.Errorf("%s, %s: err = %v, want ErrCorrupted", pass.name, k.name, err)
			}
			if n := audit.Outstanding(); n != 0 {
				t.Fatalf("%s, %s: %d stream buffers outstanding after the failed run", pass.name, k.name, n)
			}
		}
		if err := storage.WriteAll(vol, pass.file, clean); err != nil {
			t.Fatal(err)
		}
	}
}

// deltaFrames frames es as a store frames a delta file, graph.IndexFrameEdges
// records to a frame, and returns the file and each frame's payload size.
func deltaFrames(t *testing.T, es []graph.Edge) (file []byte, sizes []int) {
	t.Helper()
	var buf bytes.Buffer
	fw := graph.NewFrameWriterMagic(&buf, graph.FrameMagicDelta)
	for lo := 0; lo < len(es); lo += graph.IndexFrameEdges {
		blk, err := graph.EncodeDeltaBlocks(graph.EdgesToBytes(es[lo:min(lo+graph.IndexFrameEdges, len(es))]))
		if err == nil {
			_, err = fw.Write(blk)
		}
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(blk))
	}
	if err := fw.Finish(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), sizes
}
