package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"sort"
	"testing"

	"fastbfs/internal/errs"
	"fastbfs/internal/storage"
)

// skewedEdges is a deterministic list with hubs and duplicates, long enough
// for a delta file of several frames.
func skewedEdges(vertices uint32, n int) []Edge {
	edges := make([]Edge, n)
	x := uint64(88172645463325252)
	for i := range edges {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		src := uint32(x) % vertices
		if i%3 == 0 {
			src %= 16 // hubs
		}
		edges[i] = Edge{Src: VertexID(src), Dst: VertexID(uint32(x>>32) % vertices)}
	}
	return edges
}

// storedEdges decodes a stored edge file in stored order.
func storedEdges(t *testing.T, vol storage.Volume, m Meta) []Edge {
	t.Helper()
	b, err := storage.ReadAll(vol, EdgeFileName(m.Name))
	if err != nil {
		t.Fatal(err)
	}
	if m.EdgeCodec() == CodecDelta {
		if b, err = DeframeAll(b); err == nil {
			b, err = DecodeDeltaStream(b)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	edges, err := BytesToEdges(b)
	if err != nil {
		t.Fatal(err)
	}
	return edges
}

// loadIndex reads a stored dataset's .idx through ReadIndex.
func loadIndex(t *testing.T, vol storage.Volume, m Meta) ([]uint32, []int64) {
	t.Helper()
	b, err := storage.ReadAll(vol, IndexFileName(m.Name))
	if err != nil {
		t.Fatal(err)
	}
	deg := make([]uint32, m.Vertices)
	frames, err := ReadIndex(bytes.NewReader(b), int64(len(b)), m, deg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return deg, frames
}

// TestStoreSortsAndIndexes: a stored edge file holds the given edges
// stably sorted by source — each source's edges in their given order — and
// its index holds the out-degrees and, for a delta file, the offset of
// every frame, each frame IndexFrameEdges edges but the last.
func TestStoreSortsAndIndexes(t *testing.T) {
	const vertices = 3000
	edges := skewedEdges(vertices, 2*IndexFrameEdges+777)
	want := slices.Clone(edges)
	slices.SortStableFunc(want, func(a, b Edge) int { return int(a.Src) - int(b.Src) })
	for _, codec := range []Codec{CodecFixed, CodecDelta} {
		vol := storage.NewMem()
		if err := StoreGraph(vol, Meta{Name: "g", Vertices: vertices}, edges, StoreOptions{Codec: codec}); err != nil {
			t.Fatal(err)
		}
		m, err := LoadMeta(vol, "g")
		if err != nil {
			t.Fatal(err)
		}
		if got := storedEdges(t, vol, m); !slices.Equal(got, want) {
			t.Fatalf("%s: stored edges are not the stable sort by source", codec)
		}
		deg, frames := loadIndex(t, vol, m)
		if !slices.Equal(deg, Degrees(vertices, edges)) {
			t.Fatalf("%s: index degrees differ from the counted ones", codec)
		}
		if codec == CodecFixed {
			if frames != nil {
				t.Fatalf("fixed: index holds %d frame offsets", len(frames))
			}
			continue
		}
		file, err := storage.ReadAll(vol, EdgeFileName("g"))
		if err != nil {
			t.Fatal(err)
		}
		if len(frames) != 3 {
			t.Fatalf("delta: %d frame offsets for %d edges", len(frames), len(edges))
		}
		for i, off := range frames {
			end := int64(len(file)) - 8
			if i+1 < len(frames) {
				end = frames[i+1]
			}
			// A frame's bytes, closed by a terminator, are a framed stream
			// of its edges.
			payload, err := DeframeAll(append(append(file[:4:4], file[off:end]...), make([]byte, 8)...))
			if err == nil {
				payload, err = DecodeDeltaStream(payload)
			}
			if err != nil {
				t.Fatalf("delta: frame %d at byte %d: %v", i, off, err)
			}
			n := min(IndexFrameEdges, len(edges)-i*IndexFrameEdges)
			if !bytes.Equal(payload, EdgesToBytes(want[i*IndexFrameEdges:i*IndexFrameEdges+n])) {
				t.Fatalf("delta: frame %d does not hold edges %d..%d", i, i*IndexFrameEdges, i*IndexFrameEdges+n)
			}
		}
	}
}

// TestReorderedStoreBytesUnchanged: a reordered store writes the .edges
// and .rev files it wrote when it sorted the relabelled list by (Src, Dst)
// with a comparison sort: the counting sort by source and the per-source
// sort by destination give the same order.
func TestReorderedStoreBytesUnchanged(t *testing.T) {
	const vertices = 3000
	edges := skewedEdges(vertices, IndexFrameEdges+999)
	m := Meta{Name: "g", Vertices: vertices}
	vol := storage.NewMem()
	if err := StoreGraph(vol, m, edges, StoreOptions{Codec: CodecDelta, ReorderByDegree: true, Reverse: true}); err != nil {
		t.Fatal(err)
	}
	relabeled := slices.Clone(edges)
	DegreePermutation(vertices, edges).Apply(relabeled)
	sort.Slice(relabeled, func(i, j int) bool {
		if relabeled[i].Src != relabeled[j].Src {
			return relabeled[i].Src < relabeled[j].Src
		}
		return relabeled[i].Dst < relabeled[j].Dst
	})
	raw := EdgesToBytes(relabeled)
	rraw := make([]byte, len(raw))
	for off := 0; off < len(raw); off += EdgeBytes {
		PutEdge(rraw[off:], GetEdge(raw[off:]).Reverse())
	}
	wantEdges, _ := deltaFileBytes(raw, IndexFrameEdges)
	wantRev, _ := deltaFileBytes(rraw, mibFrameEdges)
	for name, want := range map[string][]byte{EdgeFileName("g"): wantEdges, ReverseFileName("g"): wantRev} {
		got, err := storage.ReadAll(vol, name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: %d bytes, differing from the comparison sort's %d", name, len(got), len(want))
		}
	}
}

// fbc1IndexBytes is a .idx in the FBC1 layout stored before the FBD1 one,
// which ReadIndex no longer reads: the frame offsets, 8 B each, then the
// degrees, 4 B each, raw in MiB frames.
func fbc1IndexBytes(deg []uint32, frames []int64) []byte {
	var b []byte
	for _, off := range frames {
		b = binary.LittleEndian.AppendUint64(b, uint64(off))
	}
	for _, d := range deg {
		b = binary.LittleEndian.AppendUint32(b, d)
	}
	return framedMiB(b)
}

// TestIndexLayouts: ReadIndex loads the FBD1 .idx StoreGraph writes, the
// degrees and the offset of every frame, and rejects as errs.ErrCorrupted the
// two FBC1 layouts stored before it — of a delta edge file in frames of a
// block or, before the block grain, of a MiB.
func TestIndexLayouts(t *testing.T) {
	const vertices = 3001 // odd: the FBD1 degrees end on a pad word
	edges := skewedEdges(vertices, 2*mibFrameEdges+777)
	m := Meta{Name: "g", Vertices: vertices, Edges: uint64(len(edges)), Codec: CodecDelta}
	sorted, deg := sortBySource(vertices, edges, nil)
	for _, c := range []struct {
		grain int
		index func([]uint32, []int64) []byte
	}{{IndexFrameEdges, indexBytes}, {IndexFrameEdges, fbc1IndexBytes}, {mibFrameEdges, fbc1IndexBytes}} {
		file, want := deltaFileBytes(EdgesToBytes(sorted), c.grain)
		m.StoredBytes = uint64(len(file))
		idx := c.index(deg, want)
		got := make([]uint32, vertices)
		frames, err := ReadIndex(bytes.NewReader(idx), int64(len(idx)), m, got, nil)
		if binary.LittleEndian.Uint32(idx) == FrameMagic {
			if !errors.Is(err, errs.ErrCorrupted) {
				t.Fatalf("%d-edge frames, %d-byte FBC1 index: err %v, want ErrCorrupted", c.grain, len(idx), err)
			}
		} else if err != nil || !slices.Equal(frames, want) || !slices.Equal(got, deg) {
			t.Fatalf("%d-edge frames, %d-byte index: loaded %d offsets (want %d), degrees equal %v, err %v",
				c.grain, len(idx), len(frames), len(want), slices.Equal(got, deg), err)
		}
	}
}

// indexMetas are the stores FuzzIndex reads indexes against: a fixed file
// and a delta file of three MiB frames or 65 block frames, of an odd vertex
// count.
var indexMetas = []Meta{
	{Name: "f", Vertices: 37, Edges: 100, Codec: CodecFixed},
	{Name: "d", Vertices: 37, Edges: 2*mibFrameEdges + 5, Codec: CodecDelta, StoredBytes: 900_000},
}

func FuzzIndex(f *testing.F) {
	// The degree index (.idx) a stored pass trusts to place the edges it
	// reads. Arbitrary bytes either load as a table of Vertices degrees
	// summing to Edges, with frame offsets rising from the first frame to
	// inside the edge file, or fail with errs.ErrCorrupted; the loader
	// never panics, and sizes nothing by a length it has not checked; an
	// FBC1 file, the layout stored before FBD1, never loads. The corpus
	// holds a valid index of each store in each layout — FBD1, and FBC1
	// with the delta one at each grain — and well-framed ones that break
	// each check past the CRC.
	f.Add(uint8(0), []byte{})
	f.Add(uint8(1), FrameAll(make([]byte, 4*37)))
	deg := make([]uint32, 37)
	deg[0] = 100
	f.Add(uint8(0), indexBytes(deg, nil))
	f.Add(uint8(0), fbc1IndexBytes(deg, nil))
	d := indexMetas[1]
	deg[0] = uint32(d.Edges)
	for _, grain := range []uint64{IndexFrameEdges, mibFrameEdges} {
		frames := make([]int64, indexFrames(d, grain))
		for i := range frames {
			frames[i] = 4 + int64(i)*10_000
		}
		f.Add(uint8(1), fbc1IndexBytes(deg, frames))
		if grain == IndexFrameEdges {
			f.Add(uint8(1), indexBytes(deg, frames))
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, b []byte) {
		m := indexMetas[int(which)%len(indexMetas)]
		deg := make([]uint32, m.Vertices)
		frames, err := ReadIndex(bytes.NewReader(b), int64(len(b)), m, deg, nil)
		if err == nil && len(b) >= 4 && binary.LittleEndian.Uint32(b) == FrameMagic {
			t.Fatalf("%s: an FBC1 index loaded", m.Name)
		}
		if err != nil {
			if !errors.Is(err, errs.ErrCorrupted) {
				t.Fatalf("%s: error %v does not wrap ErrCorrupted", m.Name, err)
			}
			return
		}
		var sum uint64
		for _, d := range deg {
			sum += uint64(d)
		}
		if want := indexFrames(m, IndexFrameEdges); sum != m.Edges || uint64(len(frames)) != want {
			t.Fatalf("%s: loaded degrees sum to %d (want %d), %d frames (want %d)", m.Name, sum, m.Edges, len(frames), want)
		}
		for j, off := range frames {
			if j == 0 && off != 4 || j > 0 && off <= frames[j-1] || off >= int64(m.StoredBytes)-8 {
				t.Fatalf("%s: frame %d at byte %d of a %d-byte file (offsets %v)", m.Name, j, off, m.StoredBytes, frames)
			}
		}
	})
}
