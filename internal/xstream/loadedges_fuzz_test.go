package xstream

import (
	"bytes"
	"errors"
	"testing"

	"fastbfs/internal/errs"
	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
)

// FuzzLoadEdges stores arbitrary bytes as a graph's edge file, fixed or
// delta, under a config whose vertex and edge counts the input gives (a
// delta config declares the file's own size). LoadEdges returns
// errs.ErrCorrupted or a list of exactly the declared count, every
// endpoint inside the vertex space and the sources ascending. It never
// panics.
func FuzzLoadEdges(f *testing.F) {
	es := []graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}, {Src: 2, Dst: 1}}
	fixed := graph.EdgesToBytes(es)
	blocks, err := graph.EncodeDeltaBlocks(fixed)
	if err != nil {
		f.Fatal(err)
	}
	delta := graph.FrameAllMagic(graph.FrameMagicDelta, blocks)
	f.Add(false, uint16(3), uint16(5), fixed)
	f.Add(true, uint16(3), uint16(5), delta)
	f.Add(false, uint16(2), uint16(5), fixed)
	f.Add(true, uint16(3), uint16(4), delta)
	f.Add(true, uint16(3), uint16(5), fixed)
	f.Fuzz(func(t *testing.T, isDelta bool, vertices, edges uint16, raw []byte) {
		m := graph.Meta{Name: "g", Vertices: uint64(vertices) + 1, Edges: uint64(edges)}
		if isDelta {
			m.Codec, m.StoredBytes = graph.CodecDelta, uint64(len(raw))
		}
		vol, conf := storage.NewMem(), new(bytes.Buffer)
		if err := graph.WriteConfig(conf, m); err != nil {
			t.Fatal(err)
		}
		if err := storage.WriteAll(vol, graph.ConfFileName(m.Name), conf.Bytes()); err != nil {
			t.Fatal(err)
		}
		if err := storage.WriteAll(vol, graph.EdgeFileName(m.Name), raw); err != nil {
			t.Fatal(err)
		}
		_, got, err := LoadEdges(vol, m.Name)
		if err != nil {
			if !errors.Is(err, errs.ErrCorrupted) {
				t.Fatalf("rejected with %v, want ErrCorrupted", err)
			}
			return
		}
		if uint64(len(got)) != m.Edges {
			t.Fatalf("loaded %d edges, config declares %d", len(got), m.Edges)
		}
		for i, e := range got {
			if err := m.CheckEdge(e); err != nil {
				t.Fatalf("edge %d: %v", i, err)
			}
			if i > 0 && e.Src < got[i-1].Src {
				t.Fatalf("edge %d: source %d below %d", i, e.Src, got[i-1].Src)
			}
		}
	})
}
