// Package graph defines the shared graph representation used by every
// engine in this repository: vertex identifiers, edges, the binary
// edge-list file format, balanced vertex-interval partitioning and the
// plain-text graph configuration file described in the FastBFS paper
// (§II-B and §III).
//
// Graphs are stored on a storage.Volume as a raw binary edge list — a
// sequence of little-endian (src,dst) uint32 pairs — accompanied by a
// small configuration file recording the vertex count and other
// characteristics. Nothing in this package performs I/O timing; engines
// charge time through internal/disksim.
package graph

import (
	"fmt"
	"math"
)

// VertexID identifies a vertex. Vertex ids are dense: a graph with N
// vertices uses ids [0, N).
type VertexID uint32

// NoVertex is a sentinel meaning "no vertex", used for unset parents.
const NoVertex = VertexID(math.MaxUint32)

// Edge is a directed edge from Src to Dst. Its on-disk encoding is two
// little-endian uint32 values (EdgeBytes bytes).
type Edge struct {
	Src, Dst VertexID
}

// EdgeBytes is the on-disk size of one Edge.
const EdgeBytes = 8

// WEdge is a weighted directed edge, used by the SSSP extension. Its
// on-disk encoding is two little-endian uint32 values followed by a
// little-endian IEEE-754 float32 (WEdgeBytes bytes).
type WEdge struct {
	Src, Dst VertexID
	Weight   float32
}

// WEdgeBytes is the on-disk size of one WEdge.
const WEdgeBytes = 12

// Update is the intermediate record produced by the scatter phase and
// consumed by the gather phase. It carries the destination vertex and the
// parent (source) vertex that discovered it, so engines can build a
// checkable BFS parent tree. On disk it is two little-endian uint32
// values (UpdateBytes bytes).
type Update struct {
	Dst    VertexID
	Parent VertexID
}

// UpdateBytes is the on-disk size of one Update.
const UpdateBytes = 8

// Reverse returns the edge with endpoints swapped.
func (e Edge) Reverse() Edge { return Edge{Src: e.Dst, Dst: e.Src} }

func (e Edge) String() string { return fmt.Sprintf("%d->%d", e.Src, e.Dst) }

// SelfLoop reports whether the edge starts and ends at the same vertex.
func (e Edge) SelfLoop() bool { return e.Src == e.Dst }

// Meta describes a stored graph: the characteristics the FastBFS paper
// keeps in the graph's associated configuration file.
type Meta struct {
	// Name is a human-readable dataset name (e.g. "rmat22").
	Name string
	// Vertices is the number of vertices; ids are [0, Vertices).
	Vertices uint64
	// Edges is the number of directed edges in the edge file.
	Edges uint64
	// Weighted marks graphs stored as WEdge records.
	Weighted bool
	// Undirected records that the edge file contains both directions of
	// every logical edge (the friendster dataset in the paper is an
	// undirected social graph stored symmetrized).
	Undirected bool
	// Codec names the edge-file encoding: CodecFixed ("" reads as
	// fixed, the pre-codec default) or CodecDelta for block-compressed
	// varint deltas inside the FBD1 framed container.
	Codec Codec
	// Reordered records that vertex ids were relabeled by descending
	// degree at store time; a .perm sidecar maps stored ids back to the
	// original labels, and engines translate roots and results at the
	// API boundary.
	Reordered bool
	// StoredBytes is the on-device size of the edge file when the codec
	// compresses it (zero for fixed, where the size is DataBytes).
	StoredBytes uint64
}

// EdgeCodec returns the effective codec, mapping the empty value to
// CodecFixed.
func (m Meta) EdgeCodec() Codec {
	if m.Codec == "" {
		return CodecFixed
	}
	return m.Codec
}

// DataBytes returns the size of the binary edge file described by m.
func (m Meta) DataBytes() uint64 {
	if m.Weighted {
		return m.Edges * WEdgeBytes
	}
	return m.Edges * EdgeBytes
}

// Validate checks internal consistency of the metadata.
func (m Meta) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("graph: meta has empty name")
	}
	if m.Vertices == 0 {
		return fmt.Errorf("graph %q: zero vertices", m.Name)
	}
	if m.Vertices > uint64(NoVertex) {
		return fmt.Errorf("graph %q: %d vertices exceeds the VertexID space", m.Name, m.Vertices)
	}
	if _, err := ParseCodec(string(m.Codec)); err != nil {
		return fmt.Errorf("graph %q: %w", m.Name, err)
	}
	if m.Weighted && m.EdgeCodec() != CodecFixed {
		return fmt.Errorf("graph %q: weighted graphs support only the fixed codec", m.Name)
	}
	return nil
}

// CheckEdge verifies that e's endpoints are valid vertex ids under m.
func (m Meta) CheckEdge(e Edge) error {
	if uint64(e.Src) >= m.Vertices {
		return fmt.Errorf("graph %q: edge %v has out-of-range source (vertices=%d)", m.Name, e, m.Vertices)
	}
	if uint64(e.Dst) >= m.Vertices {
		return fmt.Errorf("graph %q: edge %v has out-of-range destination (vertices=%d)", m.Name, e, m.Vertices)
	}
	return nil
}
