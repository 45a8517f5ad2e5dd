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
		var file bytes.Buffer
		fw := graph.NewFrameWriterMagic(&file, graph.FrameMagicDelta)
		for lo := 0; lo < len(es); lo += graph.IndexFrameEdges {
			blk, err := graph.EncodeDeltaBlocks(graph.EdgesToBytes(es[lo:min(lo+graph.IndexFrameEdges, len(es))]))
			if err == nil {
				_, err = fw.Write(blk)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := fw.Finish(); err != nil {
			t.Fatal(err)
		}
		return file.Bytes()
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
}
