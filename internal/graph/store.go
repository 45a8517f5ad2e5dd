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

// ReverseFileName returns the reverse-edge (in-edge) file name for a
// dataset. The file holds every edge of the dataset with Src and Dst
// swapped, in the same order as the forward list, inside the CRC32-C
// framed container — so the bottom-up engines can stream in-edges with
// end-to-end integrity checking. The file is optional: graphs stored
// before it existed load and run fine, only the bottom-up direction is
// unavailable for them.
func ReverseFileName(name string) string { return name + ".rev" }

// HasReverse reports whether a stored dataset carries a reverse-edge
// file.
func HasReverse(vol storage.Volume, name string) bool {
	sz, err := vol.Size(ReverseFileName(name))
	return err == nil && sz > 0
}

// deltaFileBytes encodes raw fixed-width edge records into the FBD1
// framed container: delta blocks packed into frames of frameEdges edges,
// whose byte offsets it returns too. Chunking at a multiple of
// DeltaBlockMaxEdges keeps frame payloads at whole blocks, so the encoding
// is identical to one pass over the full list.
func deltaFileBytes(raw []byte, frameEdges int) ([]byte, []int64) {
	var out writeBuf
	fw := NewFrameWriterMagic(&out, FrameMagicDelta)
	chunk := frameEdges * EdgeBytes
	var enc []byte
	var frames []int64
	for off := 0; off < len(raw); off += chunk {
		end := off + chunk
		if end > len(raw) {
			end = len(raw)
		}
		var err error
		enc, err = AppendDeltaBlocks(enc[:0], raw[off:end])
		if err != nil {
			panic(err) // raw is whole records by construction
		}
		if _, err := fw.Write(enc); err != nil {
			panic(err) // writeBuf cannot fail; encoded chunk is under the frame cap
		}
		frames = append(frames, int64(len(out.b)-frameHeaderBytes-len(enc)))
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
	// Reverse also writes the .rev reverse-edge file, enabling the
	// bottom-up traversal direction.
	Reverse bool
	// ReorderByDegree relabels vertices by descending total degree and
	// sorts each source's edges by destination before writing, persisting
	// the old↔new mapping in the .perm sidecar. Engines translate roots
	// and results at the API boundary, so callers keep using the original
	// labels.
	ReorderByDegree bool
}

// StoreGraph writes a graph — edge list sorted by source, its degree index,
// optional reverse file and permutation sidecar, plus configuration file —
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
	raw := EdgesToBytes(edges)
	file, frames := raw, []int64(nil)
	if codec == CodecDelta {
		file, frames = deltaFileBytes(raw, IndexFrameEdges)
		m.StoredBytes = uint64(len(file))
	}
	if err := storage.WriteAll(vol, EdgeFileName(m.Name), file); err != nil {
		return err
	}
	if opts.Reverse {
		rev := make([]byte, len(raw))
		for off := 0; off < len(raw); off += EdgeBytes {
			PutEdge(rev[off:], GetEdge(raw[off:]).Reverse())
		}
		if codec == CodecDelta {
			rev, _ = deltaFileBytes(rev, mibFrameEdges)
		} else {
			rev = framedMiB(rev)
		}
		if err := storage.WriteAll(vol, ReverseFileName(m.Name), rev); err != nil {
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

// Store writes a graph — binary edge list, reverse file plus
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
		return Meta{}, fmt.Errorf("graph %s: edge file is %d bytes, config says %d", name, sz, want)
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

// frameMiB caps the .rev and .idx frames, bounding a reader's buffer.
const frameMiB = 1 << 20

// IndexFrameEdges is the edge count of every frame of a stored delta edge
// file but the last — one delta block, about 10 KB: the grain at which the
// index places its edges and a sparse pass reads them.
const IndexFrameEdges = DeltaBlockMaxEdges

// mibFrameEdges frames a delta .rev file.
const mibFrameEdges = frameMiB / EdgeBytes

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

// framedMiB frames b in payloads of frameMiB, the last shorter.
func framedMiB(b []byte) []byte {
	var chunks [][]byte
	for ; len(b) > 0; b = b[min(len(b), frameMiB):] {
		chunks = append(chunks, b[:min(len(b), frameMiB)])
	}
	return FrameAll(chunks...)
}

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
	var b []byte
	for _, x := range slices.Concat(w...) {
		b = binary.LittleEndian.AppendUint32(b, uint32(x))
	}
	file, _ := deltaFileBytes(append(b, make([]byte, len(b)%EdgeBytes)...), IndexFrameEdges)
	return file
}

// indexBytes encodes a .idx file: the frame offsets, one 8-byte record
// each, then the degrees, two to a record.
func indexBytes(deg []uint32, frames []int64) []byte {
	off := make([]uint32, 0, 2*len(frames))
	for _, o := range frames {
		off = append(off, uint32(o), uint32(o>>32))
	}
	return words32(off, deg)
}

// readWords hands fn the first n little-endian 32-bit words of the FBD1
// payload fr reads, frame by frame, then requires the payload to end — after
// one pad word when the records hold an odd n. magic is the file's; a
// payload of another length, or another magic, is errs.ErrCorrupted: the
// FBC1 layouts of the .idx and .perm files written before FBD1 are no longer
// read, and a graph stored with them has to be stored again.
func readWords(fr *FrameReader, magic uint32, n uint64, fn func(i uint64, w uint32)) error {
	if magic != FrameMagicDelta {
		return fmt.Errorf("%w: frame magic %#x, not FBD1 (store the graph again)", errs.ErrCorrupted, magic)
	}
	total, i := n+n%2, uint64(0)
	var blk [DeltaBlockMaxEdges * EdgeBytes]byte
	for p, err := fr.Next(); err != io.EOF; p, err = fr.Next() {
		if err != nil {
			return err
		}
		for len(p) > 0 {
			words, k, err := DecodeDeltaBlock(blk[:0], p)
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
	magic, _, err := SniffContainer(r)
	nf := indexFrames(m, IndexFrameEdges)
	if err != nil || nf > m.StoredBytes/9 || uint64(len(deg)) != m.Vertices {
		return nil, bad("of %d bytes for %d vertices and %d frames (%v)", size, m.Vertices, nf, err)
	}
	var frames []int64
	if nf > 0 {
		frames = make([]int64, nf)
	}
	var sum uint64
	fr := NewFrameReaderBufs(r, bufs, frameMiB)
	fr.limit = frameMiB
	defer fr.Release()
	err = readWords(fr, magic, 2*nf+m.Vertices, func(i uint64, w uint32) {
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
	if err != nil {
		return nil, bad("of %d bytes: %v", size, err)
	}
	for i, off := range append(frames, int64(m.StoredBytes)-frameHeaderBytes)[1:] { // the terminator ends the last
		if frames[0] != 4 || off-frames[i] <= frameHeaderBytes {
			return nil, bad("frame %d at byte %d, the next at %d", i, frames[i], off)
		}
	}
	return frames, nil
}
