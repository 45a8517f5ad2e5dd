package fastbfs

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"slices"
	"testing"

	"fastbfs/internal/gen"
	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
	"fastbfs/internal/stream"
)

// TestWholeListConsumersRejectDamagedEdges: PageRank and the diameter
// estimate count degrees from the whole edge list, which they read through
// the engines' checked reader, so a damaged edge file is ErrCorrupted with
// every stream buffer back, never an index panic, on a fixed and on a delta
// store. A delta damage is framed as a store frames it and declared in a
// .conf whose stored size matches, so only its records give it away.
func TestWholeListConsumersRejectDamagedEdges(t *testing.T) {
	audit := stream.AuditPools()
	defer audit.Stop()
	m, edges, err := gen.RMAT(8, 8, gen.Graph500(), 13)
	if err != nil {
		t.Fatal(err)
	}
	slices.SortStableFunc(edges, func(a, b graph.Edge) int { return cmp.Compare(a.Src, b.Src) })
	last := len(edges) - 1
	damages := []struct {
		name   string
		damage func([]graph.Edge) []graph.Edge
	}{
		// The last record's source, so the sources still ascend.
		{"source 1<<30", func(es []graph.Edge) []graph.Edge { es[last].Src = 1 << 30; return es }},
		{"out-of-range source", func(es []graph.Edge) []graph.Edge { es[last].Src = graph.VertexID(m.Vertices); return es }},
		{"out-of-range destination", func(es []graph.Edge) []graph.Edge { es[len(es)/2].Dst = graph.VertexID(m.Vertices); return es }},
		{"descending source", func(es []graph.Edge) []graph.Edge { es[0], es[last] = es[last], es[0]; return es }},
		{"one record more", func(es []graph.Edge) []graph.Edge { return append(es, es[last]) }},
		{"one record fewer", func(es []graph.Edge) []graph.Edge { return es[:last] }},
	}
	opts := EngineOptions{MemoryBudget: 4096, Partitions: 4, StreamBufSize: 256}
	consumers := []struct {
		name string
		run  func(vol storage.Volume) error
	}{
		{"PageRankContext", func(vol storage.Volume) error {
			_, err := PageRankContext(context.Background(), vol, m.Name, 2, opts)
			return err
		}},
		{"EstimateDiameterContext", func(vol storage.Volume) error {
			_, err := EstimateDiameterContext(context.Background(), vol, m.Name, 2, 1, Options{Base: opts})
			return err
		}},
	}
	for _, codec := range []graph.Codec{graph.CodecFixed, graph.CodecDelta} {
		vol := storage.NewMem()
		if err := graph.StoreGraph(vol, m, edges, graph.StoreOptions{Codec: codec}); err != nil {
			t.Fatal(err)
		}
		stored, err := graph.LoadMeta(vol, m.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range damages {
			es := d.damage(slices.Clone(edges))
			file := graph.EdgesToBytes(es)
			if codec == graph.CodecDelta {
				file = deltaFile(t, es)
				conf, declared := new(bytes.Buffer), stored
				declared.StoredBytes = uint64(len(file))
				if err := graph.WriteConfig(conf, declared); err != nil {
					t.Fatal(err)
				}
				if err := storage.WriteAll(vol, graph.ConfFileName(m.Name), conf.Bytes()); err != nil {
					t.Fatal(err)
				}
			}
			if err := storage.WriteAll(vol, graph.EdgeFileName(m.Name), file); err != nil {
				t.Fatal(err)
			}
			for _, c := range consumers {
				func() {
					defer func() {
						if p := recover(); p != nil {
							t.Errorf("%s, %s: %s panicked: %v", codec, d.name, c.name, p)
						}
					}()
					if err := c.run(vol); !errors.Is(err, ErrCorrupted) {
						t.Errorf("%s, %s: %s: err = %v, want ErrCorrupted", codec, d.name, c.name, err)
					}
				}()
				if n := audit.Outstanding(); n != 0 {
					t.Fatalf("%s, %s: %s: %d stream buffers outstanding", codec, d.name, c.name, n)
				}
			}
		}
	}
}

// deltaFile frames es as a store frames a delta edge file,
// graph.IndexFrameEdges records to a frame.
func deltaFile(t *testing.T, es []graph.Edge) []byte {
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
	}
	if err := fw.Finish(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
