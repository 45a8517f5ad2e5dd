package algo

import (
	"math"

	"fastbfs/internal/graph"
)

// Inf is the distance of an unreached vertex in an SSSP result.
var Inf = float32(math.Inf(1))

// SSSP computes single-source shortest paths over non-negative edge
// weights with out-of-core Bellman-Ford iterations (label-correcting
// scatter/gather): a vertex whose tentative distance improved in the
// previous iteration scatters dist+weight along its out-edges; gather
// keeps the minimum. On a graph with unit weights it degenerates to
// BFS. Value packs (distance float32, changedAtIter uint32).
//
// The weighted traversal cannot use FastBFS's trimming — an edge from a
// settled-looking vertex can become useful again when a shorter path to
// its source appears — which is exactly why the paper scopes trimming to
// visit-once traversals like BFS.
type SSSP struct {
	Root graph.VertexID
}

// NewSSSP returns an SSSP program rooted at root.
func NewSSSP(root graph.VertexID) *SSSP { return &SSSP{Root: root} }

// Name implements Program.
func (s *SSSP) Name() string { return "sssp" }

func packDist(d float32, changedAt uint32) uint64 {
	return pack(math.Float32bits(d), changedAt)
}

func unpackDist(v uint64) (float32, uint32) {
	hi, lo := unpack(v)
	return math.Float32frombits(hi), lo
}

// Init implements Program: the root starts at distance 0, marked changed
// so iteration 0 scatters it; everything else is unreachable.
func (s *SSSP) Init(v graph.VertexID) uint64 {
	if v == s.Root {
		return packDist(0, 0)
	}
	return packDist(Inf, NoLevel)
}

// Scatter implements Program: relax out-edges of vertices whose distance
// changed in the previous iteration.
func (s *SSSP) Scatter(iter int, src graph.VertexID, srcVal uint64, dst graph.VertexID, weight float32) (uint64, bool) {
	d, changedAt := unpackDist(srcVal)
	if changedAt != uint32(iter) {
		return 0, false
	}
	return uint64(math.Float32bits(d + weight)), true
}

// Active implements SourceFilter: only a distance that improved in the
// previous iteration is relaxed further.
func (s *SSSP) Active(iter int, val uint64) bool {
	_, changedAt := unpackDist(val)
	return changedAt == uint32(iter)
}

// BeginGather implements Program.
func (s *SSSP) BeginGather(iter int, val uint64) uint64 { return val }

// Apply implements Program: keep the minimum tentative distance.
func (s *SSSP) Apply(iter int, val, payload uint64) (uint64, bool) {
	d, _ := unpackDist(val)
	nd := math.Float32frombits(uint32(payload))
	if nd < d {
		return packDist(nd, uint32(iter)+1), true
	}
	return val, false
}

// EndGather implements Program.
func (s *SSSP) EndGather(iter int, val uint64) (uint64, bool) {
	_, changedAt := unpackDist(val)
	return val, changedAt == uint32(iter)+1
}

// Converged implements Program: a fixpoint of relaxations.
func (s *SSSP) Converged(iter int, changes uint64, emitted int64) bool {
	return changes == 0
}

// Distances unpacks final shortest-path distances (Inf = unreached).
func (s *SSSP) Distances(values []uint64) []float32 {
	out := make([]float32, len(values))
	for i, v := range values {
		out[i], _ = unpackDist(v)
	}
	return out
}
