package graph

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
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

// checkFrameOffsets asserts that frames, the offsets an index gives, place
// want in file: each frame's bytes, closed by a terminator, are a framed
// stream of IndexFrameEdges of them but the last.
func checkFrameOffsets(t *testing.T, label string, file []byte, frames []int64, want []Edge) {
	t.Helper()
	if n := (len(want) + IndexFrameEdges - 1) / IndexFrameEdges; len(frames) != n {
		t.Fatalf("%s: %d frame offsets for %d edges", label, len(frames), len(want))
	}
	for i, off := range frames {
		end := int64(len(file)) - 8
		if i+1 < len(frames) {
			end = frames[i+1]
		}
		magic, payload, err := DeframeAllMagic(append(append(file[:4:4], file[off:end]...), make([]byte, 8)...))
		if err == nil && magic == FrameMagicDelta {
			payload, err = DecodeDeltaStream(payload)
		}
		n := min(IndexFrameEdges, len(want)-i*IndexFrameEdges)
		if err != nil || !bytes.Equal(payload, EdgesToBytes(want[i*IndexFrameEdges:i*IndexFrameEdges+n])) {
			t.Fatalf("%s: frame %d at byte %d does not hold edges %d..%d (err %v)", label, i, off, i*IndexFrameEdges, i*IndexFrameEdges+n, err)
		}
	}
}

// TestStoreSortsAndIndexes: a stored edge file holds the given edges
// stably sorted by source — each source's edges in their given order — and
// its index holds the out-degrees and, for a delta file, the offset of
// every frame, each frame IndexFrameEdges edges but the last. Its
// transposed graph reads back as the transpose, and the reverse index
// places every tail frame.
func TestStoreSortsAndIndexes(t *testing.T) {
	const vertices = 3000
	edges := skewedEdges(vertices, 3*IndexFrameEdges+777)
	want := slices.Clone(edges)
	slices.SortStableFunc(want, func(a, b Edge) int { return int(a.Src) - int(b.Src) })
	trans := transpose(edges)
	var tails []Edge // the transpose less each target's first record
	for i, x := range trans {
		if i > 0 && trans[i-1].Src == x.Src {
			tails = append(tails, x)
		}
	}
	for _, codec := range []Codec{CodecFixed, CodecDelta} {
		vol := storage.NewMem()
		if err := StoreGraph(vol, Meta{Name: "g", Vertices: vertices}, edges, StoreOptions{Codec: codec, Reverse: true}); err != nil {
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
		file, err := storage.ReadAll(vol, EdgeFileName("g"))
		if err != nil {
			t.Fatal(err)
		}
		if codec == CodecFixed && frames != nil {
			t.Fatalf("fixed: index holds %d frame offsets", len(frames))
		} else if codec == CodecDelta {
			checkFrameOffsets(t, "delta .edges", file, frames, want)
		}
		rev, err := storage.ReadAll(vol, ReverseFileName("g"))
		if err == nil {
			file, err = storage.ReadAll(vol, ReverseIndexFileName("g"))
		}
		if err != nil {
			t.Fatal(err)
		}
		if got, err := readTransposed(m, rev, file); err != nil || !slices.Equal(got, trans) {
			t.Fatalf("%s: the transposed graph reads back as %d records (err %v), not the transpose", codec, len(got), err)
		}
		frames, err = ReadReverseIndex(bytes.NewReader(file), int64(len(file)), m, int64(len(rev)), nil, func(VertexID, uint32, VertexID) {})
		if err != nil {
			t.Fatal(err)
		}
		checkFrameOffsets(t, string(codec)+" .rev", rev, frames, tails)
	}
}

// transpose is edges reversed, sorted by a comparison sort by target and
// then by source.
func transpose(edges []Edge) []Edge {
	rev := make([]Edge, len(edges))
	for i, e := range edges {
		rev[i] = e.Reverse()
	}
	slices.SortFunc(rev, func(a, b Edge) int { return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst)) })
	return rev
}

// readTransposed reads a .rev and .ridx pair of m's, whole, back into the
// transposed graph's records: each vertex's head, then its tails. A file
// that fails a check, or tails off their in-degrees, is an error.
func readTransposed(m Meta, rev, ridx []byte) ([]Edge, error) {
	deg, heads := make([]uint32, m.Vertices), make([]VertexID, m.Vertices)
	frames, err := ReadReverseIndex(bytes.NewReader(ridx), int64(len(ridx)), m, int64(len(rev)), nil, func(v VertexID, d uint32, h VertexID) {
		deg[v], heads[v] = d, h
	})
	if err != nil {
		return nil, err
	}
	magic, payload, err := DeframeAllMagic(rev)
	if err == nil && magic != map[Codec]uint32{CodecFixed: FrameMagic, CodecDelta: FrameMagicDelta}[m.EdgeCodec()] {
		err = fmt.Errorf("%s .rev with magic %#x", m.EdgeCodec(), magic)
	}
	if err == nil && magic == FrameMagicDelta {
		payload, err = DecodeDeltaStream(payload)
	}
	if err != nil {
		return nil, err
	}
	tails, err := BytesToEdges(payload)
	if err != nil {
		return nil, err
	}
	if want := (len(tails) + IndexFrameEdges - 1) / IndexFrameEdges; len(frames) != want {
		return nil, fmt.Errorf("%d tail frames for %d tails", len(frames), len(tails))
	}
	var out []Edge
	for v, d := range deg {
		for i := uint32(0); i < d; i++ {
			x := Edge{Src: VertexID(v), Dst: heads[v]}
			if i > 0 {
				if len(tails) == 0 || tails[0].Src != VertexID(v) {
					return nil, fmt.Errorf("vertex %d's tail %d missing", v, i)
				}
				x, tails = tails[0], tails[1:]
			}
			out = append(out, x)
		}
	}
	if len(tails) > 0 {
		return nil, fmt.Errorf("%d tails past the in-degrees", len(tails))
	}
	return out, nil
}

// TestReorderedStoreBytesUnchanged: a reordered store writes the .edges,
// .rev and .ridx files it would write had it sorted the relabelled list by
// (Src, Dst), and its transpose by (target, source), with a comparison sort:
// the counting sorts, and the per-source sort by destination, give the same
// order.
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
	wantEdges, _ := framedFile(relabeled, IndexFrameEdges, CodecDelta)
	wantRev, wantRidx := reverseFiles(vertices, slices.Clone(relabeled), CodecDelta)
	for name, want := range map[string][]byte{EdgeFileName("g"): wantEdges, ReverseFileName("g"): wantRev, ReverseIndexFileName("g"): wantRidx} {
		got, err := storage.ReadAll(vol, name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: %d bytes, differing from the comparison sort's %d", name, len(got), len(want))
		}
	}
}

// mibFrameEdges is the frame of the FBC1 .idx files stored before the
// block grain.
const mibFrameEdges = frameMiB / EdgeBytes

// framedMiB frames b in payloads of frameMiB, the last shorter.
func framedMiB(b []byte) []byte {
	var chunks [][]byte
	for ; len(b) > 0; b = b[min(len(b), frameMiB):] {
		chunks = append(chunks, b[:min(len(b), frameMiB)])
	}
	return FrameAll(chunks...)
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
		file, want := framedFile(sorted, c.grain, CodecDelta)
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
	// reads, and the reverse index (.ridx) a bottom-up pass trusts to place
	// the tails and hand it the heads — read as a .ridx when bit 1 of which
	// is set, against its store's .rev. Arbitrary bytes either load as a
	// table of Vertices degrees summing to Edges (and, for a .ridx, heads in
	// the graph), with frame offsets rising from the first frame to inside
	// the file they index, or fail with errs.ErrCorrupted; the loader never
	// panics, and sizes nothing by a length it has not checked; an FBC1
	// file, the layout stored before FBD1, never loads. The corpus holds a
	// valid index of each store in each layout — FBD1, and FBC1 with the
	// delta one at each grain — a valid .ridx of each store, and well-framed
	// ones that break each check past the CRC.
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
	revSizes := make([]int64, len(indexMetas))
	for i, m := range indexMetas {
		sorted, _ := sortBySource(m.Vertices, skewedEdges(uint32(m.Vertices), int(m.Edges)), nil)
		rev, ridx := reverseFiles(m.Vertices, sorted, m.EdgeCodec())
		revSizes[i] = int64(len(rev))
		f.Add(uint8(2+i), ridx)
		if i > 0 {
			continue
		}
		// The fixed store's .ridx, broken past the CRC: a head outside the
		// graph, in-degrees short, the last slot off the .rev's end; and its
		// words framed FBC1.
		raw, err := DeframeAll(ridx)
		if err == nil {
			raw, err = DecodeDeltaStream(raw)
		}
		if err != nil {
			f.Fatal(err)
		}
		words := make([]uint32, len(raw)/4)
		for j := range words {
			words[j] = binary.LittleEndian.Uint32(raw[4*j:])
		}
		ns := int(2 * reverseSlots(m.Edges))
		for _, edit := range []func(w []uint32){
			func(w []uint32) { w[ns+1] = uint32(m.Vertices) }, // vertex 0's head
			func(w []uint32) { w[ns]-- },                      // vertex 0's in-degree
			func(w []uint32) { w[ns-2]++ },                    // the last slot
		} {
			w := slices.Clone(words)
			edit(w)
			f.Add(uint8(2+i), words32(w))
		}
		f.Add(uint8(2+i), FrameAll(raw))
	}
	f.Fuzz(func(t *testing.T, which uint8, b []byte) {
		m := indexMetas[int(which)%len(indexMetas)]
		if which&2 != 0 {
			checkReverseIndex(t, m, revSizes[int(which)%len(indexMetas)], b)
			return
		}
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

// checkReverseIndex is FuzzIndex's check of b read as m's .ridx, against a
// revSize-byte .rev.
func checkReverseIndex(t *testing.T, m Meta, revSize int64, b []byte) {
	var seen, sum, tails uint64
	frames, err := ReadReverseIndex(bytes.NewReader(b), int64(len(b)), m, revSize, nil, func(v VertexID, d uint32, h VertexID) {
		if uint64(v) != seen || uint64(h) >= m.Vertices || d == 0 && h != 0 {
			t.Fatalf("%s: handed vertex %d (expected %d) in-degree %d, head %d", m.Name, v, seen, d, h)
		}
		seen, sum, tails = seen+1, sum+uint64(d), tails+uint64(max(d, 1)-1)
	})
	if err == nil && len(b) >= 4 && binary.LittleEndian.Uint32(b) == FrameMagic {
		t.Fatalf("%s: an FBC1 reverse index loaded", m.Name)
	}
	if err != nil {
		if !errors.Is(err, errs.ErrCorrupted) {
			t.Fatalf("%s: error %v does not wrap ErrCorrupted", m.Name, err)
		}
		return
	}
	if want := (tails + IndexFrameEdges - 1) / IndexFrameEdges; seen != m.Vertices || sum != m.Edges || uint64(len(frames)) != want {
		t.Fatalf("%s: loaded %d vertices, in-degrees summing to %d (want %d), %d tail frames (want %d)", m.Name, seen, sum, m.Edges, len(frames), want)
	}
	for j, off := range frames {
		if j == 0 && off != 4 || j > 0 && off <= frames[j-1]+8 || off >= revSize-16 {
			t.Fatalf("%s: tail frame %d at byte %d of a %d-byte .rev (offsets %v)", m.Name, j, off, revSize, frames)
		}
	}
}
