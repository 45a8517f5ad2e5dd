package graph

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"

	"fastbfs/internal/errs"
	"fastbfs/internal/storage"
)

// Naming conventions for stored graphs: the raw binary edge list and its
// associated configuration file (§III).

// EdgeFileName returns the edge-list file name for a dataset.
func EdgeFileName(name string) string { return name + ".edges" }

// ConfFileName returns the configuration file name for a dataset.
func ConfFileName(name string) string { return name + ".conf" }

// ReverseFileName returns the name of a dataset's transposed graph
// (DESIGN.md §12): its records {target, source}, sorted by target and then
// by source, less each target's first — its head, which the reverse index
// holds — in frames of IndexFrameEdges edges under the edge file's codec.
// The file is optional: a graph stored without it runs top-down only.
func ReverseFileName(name string) string { return name + ".rev" }

// ReverseIndexFileName returns the name of a dataset's reverse index: the
// .rev file's frame offsets, then each vertex's in-degree and head.
func ReverseIndexFileName(name string) string { return name + ".ridx" }

// HasReverse reports whether a stored dataset carries a reverse-edge
// file.
func HasReverse(vol storage.Volume, name string) bool {
	sz, err := vol.Size(ReverseFileName(name))
	return err == nil && sz > 0
}

// framedFile encodes edges into codec's framed container — FBD1 delta
// blocks, or FBC1 raw records for the fixed codec — frameEdges edges a
// frame, and returns the frames' byte offsets too. Chunking at a multiple
// of DeltaBlockMaxEdges keeps delta frame payloads at whole blocks, so the
// encoding is identical to one pass over the list.
func framedFile(edges []Edge, frameEdges int, codec Codec) ([]byte, []int64) {
	var out writeBuf
	magic := FrameMagicDelta
	if codec == CodecFixed {
		magic = FrameMagic
	}
	fw := NewFrameWriterMagic(&out, magic)
	var raw, enc []byte
	var frames []int64
	for lo := 0; lo < len(edges); lo += frameEdges {
		raw = raw[:0]
		for _, e := range edges[lo:min(lo+frameEdges, len(edges))] {
			raw = binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(raw, uint32(e.Src)), uint32(e.Dst))
		}
		payload := raw
		if magic == FrameMagicDelta {
			var err error
			if enc, err = AppendDeltaBlocks(enc[:0], raw); err != nil {
				panic(err) // raw is whole records by construction
			}
			payload = enc
		}
		if _, err := fw.Write(payload); err != nil {
			panic(err) // writeBuf cannot fail; a frame is under the cap
		}
		frames = append(frames, int64(len(out.b)-frameHeaderBytes-len(payload)))
	}
	if err := fw.Finish(); err != nil {
		panic(err)
	}
	return out.b, frames
}

// StoreOptions configures StoreGraph.
type StoreOptions struct {
	// Codec selects the edge-file encoding: CodecFixed (also the ""
	// default) or CodecDelta.
	Codec Codec
	// Reverse also writes the transposed graph, .rev and .ridx, enabling
	// the bottom-up traversal direction.
	Reverse bool
	// ReorderByDegree relabels vertices by descending total degree and
	// sorts each source's edges by destination before writing, persisting
	// the old↔new mapping in the .perm sidecar. Engines translate roots
	// and results at the API boundary, so callers keep using the original
	// labels.
	ReorderByDegree bool
}

// StoreGraph writes a graph — edge list sorted by source, its degree index,
// optional transposed graph and permutation sidecar, plus configuration file —
// to a volume under the requested codec. The sort is stable: each source
// keeps its edges in the given order (in destination order when
// reordered). The edge count in m is overwritten with len(edges).
func StoreGraph(vol storage.Volume, m Meta, edges []Edge, opts StoreOptions) error {
	codec, err := ParseCodec(string(opts.Codec))
	if err != nil {
		return err
	}
	m.Edges = uint64(len(edges))
	m.Codec = codec
	m.Reordered = opts.ReorderByDegree
	m.StoredBytes = 0
	if err := m.Validate(); err != nil {
		return err
	}
	for _, e := range edges {
		if err := m.CheckEdge(e); err != nil {
			return err
		}
	}
	var perm *Permutation
	if opts.ReorderByDegree {
		perm = DegreePermutation(m.Vertices, edges)
		if err := StorePerm(vol, m.Name, perm); err != nil {
			return err
		}
	}
	edges, deg := sortBySource(m.Vertices, edges, perm)
	var file []byte
	var frames []int64
	if codec == CodecDelta {
		file, frames = framedFile(edges, IndexFrameEdges, codec)
		m.StoredBytes = uint64(len(file))
	} else {
		file = EdgesToBytes(edges)
	}
	if err := storage.WriteAll(vol, EdgeFileName(m.Name), file); err != nil {
		return err
	}
	if opts.Reverse {
		rev, ridx := reverseFiles(m.Vertices, edges, codec)
		if err := storage.WriteAll(vol, ReverseFileName(m.Name), rev); err != nil {
			return err
		}
		if err := storage.WriteAll(vol, ReverseIndexFileName(m.Name), ridx); err != nil {
			return err
		}
	}
	if err := storage.WriteAll(vol, IndexFileName(m.Name), indexBytes(deg, frames)); err != nil {
		return err
	}
	var conf strings.Builder
	if err := WriteConfig(&conf, m); err != nil {
		return err
	}
	return storage.WriteAll(vol, ConfFileName(m.Name), []byte(conf.String()))
}

// Store writes a graph — binary edge list, transposed graph plus
// configuration file — to a volume in the fixed codec. It is the
// original storing form, kept as a thin wrapper over StoreGraph.
func Store(vol storage.Volume, m Meta, edges []Edge) error {
	return StoreGraph(vol, m, edges, StoreOptions{Reverse: true})
}

// StoreWeighted writes a weighted graph — binary WEdge list, stably
// sorted by source like StoreGraph's, plus configuration file — to a
// volume.
func StoreWeighted(vol storage.Volume, m Meta, edges []WEdge) error {
	m.Edges = uint64(len(edges))
	m.Weighted = true
	if err := m.Validate(); err != nil {
		return err
	}
	for _, e := range edges {
		if err := m.CheckEdge(Edge{Src: e.Src, Dst: e.Dst}); err != nil {
			return err
		}
		if e.Weight < 0 {
			return fmt.Errorf("graph %q: negative weight on %d->%d", m.Name, e.Src, e.Dst)
		}
	}
	edges = slices.Clone(edges)
	slices.SortStableFunc(edges, func(a, b WEdge) int { return cmp.Compare(a.Src, b.Src) })
	if err := storage.WriteAll(vol, EdgeFileName(m.Name), WEdgesToBytes(edges)); err != nil {
		return err
	}
	var conf strings.Builder
	if err := WriteConfig(&conf, m); err != nil {
		return err
	}
	return storage.WriteAll(vol, ConfFileName(m.Name), []byte(conf.String()))
}

// LoadMeta reads a stored graph's configuration file.
func LoadMeta(vol storage.Volume, name string) (Meta, error) {
	b, err := storage.ReadAll(vol, ConfFileName(name))
	if err != nil {
		if errors.Is(err, storage.ErrNotExist) {
			return Meta{}, fmt.Errorf("graph %s: %w: %w", name, errs.ErrGraphNotFound, err)
		}
		return Meta{}, fmt.Errorf("graph: loading config for %s: %w", name, err)
	}
	m, err := ReadConfig(strings.NewReader(string(b)))
	if err != nil {
		return Meta{}, err
	}
	// Cross-check the edge file size against the config.
	sz, err := vol.Size(EdgeFileName(name))
	if err != nil {
		if errors.Is(err, storage.ErrNotExist) {
			return Meta{}, fmt.Errorf("graph %s: %w: %w", name, errs.ErrGraphNotFound, err)
		}
		return Meta{}, fmt.Errorf("graph: edge file for %s: %w", name, err)
	}
	want := m.DataBytes()
	if m.EdgeCodec() == CodecDelta {
		// Compressed files record their on-device size in the config;
		// the logical DataBytes no longer matches the file.
		want = m.StoredBytes
	}
	if uint64(sz) != want {
		return Meta{}, fmt.Errorf("graph %s: %w: edge file is %d bytes, config says %d", name, errs.ErrCorrupted, sz, want)
	}
	return m, nil
}

// LoadEdges reads a stored graph's full edge list into memory, decoding
// compressed codecs and translating a reordered graph's endpoints back
// to the caller's original labels, so the returned list always lines up
// with results, roots and degree tables in original space. Intended for
// tests, reference BFS and small graphs — engines stream the stored
// (possibly relabeled) file instead.
func LoadEdges(vol storage.Volume, name string) (Meta, []Edge, error) {
	m, err := LoadMeta(vol, name)
	if err != nil {
		return Meta{}, nil, err
	}
	b, err := storage.ReadAll(vol, EdgeFileName(name))
	if err != nil {
		return Meta{}, nil, err
	}
	if m.EdgeCodec() == CodecDelta {
		magic, blocks, err := DeframeAllMagic(b)
		if err != nil {
			return Meta{}, nil, fmt.Errorf("graph %s: %w", name, err)
		}
		if magic != FrameMagicDelta {
			return Meta{}, nil, fmt.Errorf("graph %s: %w: delta edge file carries magic %#x", name, errs.ErrCorrupted, magic)
		}
		if b, err = DecodeDeltaStream(blocks); err != nil {
			return Meta{}, nil, fmt.Errorf("graph %s: %w", name, err)
		}
	}
	edges, err := BytesToEdges(b)
	if err != nil {
		return Meta{}, nil, err
	}
	if m.Reordered {
		perm, err := LoadPerm(vol, name, m.Vertices)
		if err != nil {
			return Meta{}, nil, err
		}
		for i := range edges {
			edges[i].Src = perm.ToOrig(edges[i].Src)
			edges[i].Dst = perm.ToOrig(edges[i].Dst)
		}
	}
	return m, edges, nil
}

// IndexFileName returns the name of a dataset's degree index (DESIGN.md
// §5). A graph stored without one is read whole.
func IndexFileName(name string) string { return name + ".idx" }

// frameMiB caps the index frames, bounding a reader's buffer.
const frameMiB = 1 << 20

// IndexFrameEdges is the edge count of every frame of a stored delta edge
// file and of a .rev file but the last — one delta block, about 10 KB: the
// grain at which an index places its edges and a sparse pass reads them.
const IndexFrameEdges = DeltaBlockMaxEdges

// sortBySource returns edges sorted by source and the out-degree table: a
// counting sort, each source's edges in the given order — or, relabelled
// by a non-nil perm, in destination order.
func sortBySource(vertices uint64, edges []Edge, perm *Permutation) ([]Edge, []uint32) {
	if perm != nil {
		edges = slices.Clone(edges)
		perm.Apply(edges)
	}
	deg := Degrees(vertices, edges)
	next := make([]int, vertices)
	for v := 1; v < len(next); v++ {
		next[v] = next[v-1] + int(deg[v-1])
	}
	out := make([]Edge, len(edges))
	for _, e := range edges {
		out[next[e.Src]] = e
		next[e.Src]++
	}
	for v, pos := 0, 0; perm != nil && v < len(deg); v, pos = v+1, pos+int(deg[v]) {
		slices.SortFunc(out[pos:pos+int(deg[v])], func(a, b Edge) int { return cmp.Compare(a.Dst, b.Dst) })
	}
	return out, deg
}

// reverseFiles returns the .rev and .ridx files of edges sorted by source,
// reversing edges in place. The transposed graph's records {target, source}
// come from a stable counting sort by target, so each target's follow in
// source order: the first is its head, its smallest-id in-neighbour, which
// the index holds with its in-degree; the file holds the rest, the tails.
func reverseFiles(vertices uint64, edges []Edge, codec Codec) (rev, ridx []byte) {
	for i, e := range edges {
		edges[i] = e.Reverse()
	}
	recs, _ := sortBySource(vertices, edges, nil)
	pairs, tails := make([]uint32, 2*vertices), recs[:0] // in-degree and head
	for _, x := range recs {
		if i := 2 * uint64(x.Src); pairs[i] == 0 {
			pairs[i], pairs[i+1] = 1, uint32(x.Dst)
		} else {
			pairs[i]++
			tails = append(tails, x)
		}
	}
	rev, frames := framedFile(tails, IndexFrameEdges, codec)
	slots := make([]int64, reverseSlots(uint64(len(edges))))
	for i := range slots {
		slots[i] = int64(len(rev)) - frameHeaderBytes
	}
	copy(slots, frames)
	return rev, words32(offsetWords(slots), pairs)
}

// reverseSlots is the offset slots of a .ridx for a graph of edges edges:
// one a frame of as many edges, and one more, so that the slots past the
// tails' frames, at least one, hold the terminator's offset.
func reverseSlots(edges uint64) uint64 { return (edges+IndexFrameEdges-1)/IndexFrameEdges + 1 }

// indexFrames is the frame count of m's delta edge file in frames of grain
// edges, 0 for a fixed one.
func indexFrames(m Meta, grain uint64) uint64 {
	if m.EdgeCodec() != CodecDelta {
		return 0
	}
	return (m.Edges + grain - 1) / grain
}

// words32 is an FBD1 file of the little-endian 32-bit words of w, two to a
// record, an odd count padded by a zero.
func words32[T ~uint32](w ...[]T) []byte {
	words := append(slices.Concat(w...), 0) // the pad of an odd count
	recs := make([]Edge, len(words)/2)
	for i := range recs {
		recs[i] = Edge{Src: VertexID(words[2*i]), Dst: VertexID(words[2*i+1])}
	}
	file, _ := framedFile(recs, IndexFrameEdges, CodecDelta)
	return file
}

// indexBytes encodes a .idx file: the frame offsets, one 8-byte record
// each, then the degrees, two to a record.
func indexBytes(deg []uint32, frames []int64) []byte { return words32(offsetWords(frames), deg) }

// offsetWords is the words of byte offsets, low word first.
func offsetWords(offs []int64) []uint32 {
	w := make([]uint32, 0, 2*len(offs))
	for _, o := range offs {
		w = append(w, uint32(o), uint32(o>>32))
	}
	return w
}

// readWords hands fn the first n little-endian 32-bit words of the FBD1
// file r reads, in frames of at most limit bytes through buffers from bufs
// (nil: its own), then requires the payload to end — after one pad word
// when the records hold an odd n. Another magic, or a payload of another
// length, is errs.ErrCorrupted: the FBC1 layouts of the .idx and .perm files
// written before FBD1 are no longer read, and a graph stored with them has
// to be stored again.
func readWords(r io.Reader, bufs Buffers, limit int, n uint64, fn func(i uint64, w uint32)) error {
	magic, _, err := SniffContainer(r)
	if err != nil {
		return err
	}
	if magic != FrameMagicDelta {
		return fmt.Errorf("%w: frame magic %#x, not FBD1 (store the graph again)", errs.ErrCorrupted, magic)
	}
	fr := NewFrameReaderBufs(r, bufs, limit)
	fr.limit = limit
	defer fr.Release()
	total, i := n+n%2, uint64(0)
	var blk [DeltaBlockMaxEdges * EdgeBytes]byte
	for p, err := fr.Next(); err != io.EOF; p, err = fr.Next() {
		if err != nil {
			return err
		}
		for len(p) > 0 {
			words, k, err := DecodeDeltaBlock(blk[:0], p, nil)
			if err != nil {
				return err
			}
			p = p[k:]
			if len(words)%4 != 0 || uint64(len(words)/4) > total-i {
				return fmt.Errorf("%w: payload past %d words", errs.ErrCorrupted, total)
			}
			for j := 0; j < len(words); j, i = j+4, i+1 {
				if i < n {
					fn(i, binary.LittleEndian.Uint32(words[j:]))
				}
			}
		}
	}
	if i != total {
		return fmt.Errorf("%w: payload ends at word %d of %d", errs.ErrCorrupted, i, total)
	}
	return nil
}

// checkFrames checks that frame offsets rise from the first, at byte 4, by
// more than a frame header each, to end, the terminator's.
func checkFrames(frames []int64, end int64) error {
	for i, off := range append(frames[:len(frames):len(frames)], end) {
		if i == 0 && off != 4 || i > 0 && off-frames[i-1] <= frameHeaderBytes {
			return fmt.Errorf("frame %d at byte %d of %d", i, off, end+frameHeaderBytes)
		}
	}
	return nil
}

// ReadIndex reads m's size-byte .idx file from r: the degrees into deg (len
// m.Vertices) and the offsets of a delta file's frames of IndexFrameEdges
// edges into the slice it returns (nil for a fixed file), the frames through
// buffers from bufs. It checks what m implies before it allocates, each
// frame's CRC, that the degrees sum to m.Edges and that the offsets rise from
// the first frame to inside the edge file: anything else is
// errs.ErrCorrupted.
func ReadIndex(r io.Reader, size int64, m Meta, deg []uint32, bufs Buffers) ([]int64, error) {
	bad := func(format string, a ...any) error {
		return fmt.Errorf("graph %s: %w: index "+format, append([]any{m.Name, errs.ErrCorrupted}, a...)...)
	}
	nf := indexFrames(m, IndexFrameEdges)
	if nf > m.StoredBytes/9 || uint64(len(deg)) != m.Vertices {
		return nil, bad("of %d bytes for %d vertices and %d frames", size, m.Vertices, nf)
	}
	var frames []int64
	if nf > 0 {
		frames = make([]int64, nf)
	}
	var sum uint64
	err := readWords(r, bufs, frameMiB, 2*nf+m.Vertices, func(i uint64, w uint32) {
		if i < 2*nf {
			frames[i/2] |= int64(w) << (32 * (i % 2))
		} else {
			deg[i-2*nf] = w
			sum += uint64(w)
		}
	})
	if err == nil && sum != m.Edges {
		err = fmt.Errorf("degrees summing to %d, not %d", sum, m.Edges)
	}
	if err == nil && nf > 0 {
		err = checkFrames(frames, int64(m.StoredBytes)-frameHeaderBytes)
	}
	if err != nil {
		return nil, bad("of %d bytes: %v", size, err)
	}
	return frames, nil
}

// ReadReverseIndex reads m's size-byte .ridx file from r, the index of its
// revSize-byte .rev file, through buffers from bufs. It hands fn each
// vertex's in-degree and head (0 for a vertex with no in-edge) in vertex
// order as they decode, checking each head first, and returns the offsets of
// the .rev's tail frames. The in-degrees must sum to m.Edges and the tail
// frames rise from the first to the .rev's terminator, whose offset fills the
// slots past them: anything else, a .rev of another layout or length
// included, is errs.ErrCorrupted.
func ReadReverseIndex(r io.Reader, size int64, m Meta, revSize int64, bufs Buffers, fn func(v VertexID, deg uint32, head VertexID)) ([]int64, error) {
	ns, end := reverseSlots(m.Edges), revSize-frameHeaderBytes
	var slots []int64
	var sum, tails uint64
	var deg uint32
	var err, headErr error
	// At least Edges-Vertices tails, 9 bytes a frame of them at the least.
	if (m.Edges-min(m.Edges, m.Vertices))/IndexFrameEdges*9 > uint64(revSize) {
		err = fmt.Errorf("too short for %d edges", m.Edges)
	} else {
		slots = make([]int64, ns)
		err = readWords(r, bufs, frameMiB, 2*ns+2*m.Vertices, func(i uint64, w uint32) {
			switch {
			case i < 2*ns:
				slots[i/2] |= int64(w) << (32 * (i % 2))
			case i%2 == 0:
				deg, sum, tails = w, sum+uint64(w), tails+uint64(max(w, 1)-1)
			case headErr != nil:
			case uint64(w) >= m.Vertices || deg == 0 && w != 0:
				headErr = fmt.Errorf("vertex %d's head %d", (i-2*ns)/2, w)
			default:
				fn(VertexID((i-2*ns)/2), deg, VertexID(w))
			}
		})
	}
	if err = cmp.Or(err, headErr); err == nil && sum != m.Edges {
		err = fmt.Errorf("in-degrees summing to %d, not %d", sum, m.Edges)
	}
	nf := (tails + IndexFrameEdges - 1) / IndexFrameEdges
	if err == nil && slices.ContainsFunc(slots[nf:], func(off int64) bool { return off != end }) {
		err = fmt.Errorf("a slot past the %d tail frames not at byte %d", nf, end)
	}
	if err = cmp.Or(err, checkFrames(slots[:min(nf, uint64(len(slots)))], end)); err != nil {
		return nil, fmt.Errorf("graph %s: %w: reverse index of %d bytes for a %d-byte .rev: %v (store the graph again)", m.Name, errs.ErrCorrupted, size, revSize, err)
	}
	return slots[:nf], nil
}
