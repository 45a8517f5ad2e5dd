package algo

import (
	"math"

	"fastbfs/internal/graph"
)

// Packing helpers: two uint32 halves in one packed value.
func pack(hi, lo uint32) uint64       { return uint64(hi)<<32 | uint64(lo) }
func unpack(v uint64) (hi, lo uint32) { return uint32(v >> 32), uint32(v) }

// NoLevel mirrors the BFS engines' unvisited sentinel.
const NoLevel = uint32(0xFFFFFFFF)

// BFS is breadth-first search as an algo Program: value = (level,
// parent). It exists both as a baseline for the dedicated engines and as
// the building block for MultiSourceBFS.
type BFS struct {
	Roots []graph.VertexID
}

// NewBFS returns a single-source BFS program.
func NewBFS(root graph.VertexID) *BFS { return &BFS{Roots: []graph.VertexID{root}} }

// NewMultiSourceBFS returns a BFS program discovering from every root at
// once — the reachability kernel used for things like landmark distance
// sketches.
func NewMultiSourceBFS(roots []graph.VertexID) *BFS { return &BFS{Roots: roots} }

// Name implements Program.
func (b *BFS) Name() string { return "bfs" }

// Init implements Program.
func (b *BFS) Init(v graph.VertexID) uint64 {
	for _, r := range b.Roots {
		if v == r {
			return pack(0, uint32(v))
		}
	}
	return pack(NoLevel, uint32(graph.NoVertex))
}

// Scatter implements Program.
func (b *BFS) Scatter(iter int, src graph.VertexID, srcVal uint64, dst graph.VertexID, weight float32) (uint64, bool) {
	level, _ := unpack(srcVal)
	if level == uint32(iter) {
		return pack(uint32(iter)+1, uint32(src)), true
	}
	return 0, false
}

// Active implements SourceFilter: the frontier of iteration iter is the
// vertices at level iter.
func (b *BFS) Active(iter int, val uint64) bool {
	level, _ := unpack(val)
	return level == uint32(iter)
}

// BeginGather implements Program.
func (b *BFS) BeginGather(iter int, val uint64) uint64 { return val }

// Apply implements Program.
func (b *BFS) Apply(iter int, val, payload uint64) (uint64, bool) {
	level, _ := unpack(val)
	if level == NoLevel {
		return payload, true
	}
	return val, false
}

// EndGather implements Program.
func (b *BFS) EndGather(iter int, val uint64) (uint64, bool) { return val, false }

// Converged implements Program: stop when nothing was emitted.
func (b *BFS) Converged(iter int, changes uint64, emitted int64) bool { return emitted == 0 }

// Levels unpacks a run's values into per-vertex BFS levels.
func (b *BFS) Levels(values []uint64) []uint32 {
	out := make([]uint32, len(values))
	for i, v := range values {
		out[i], _ = unpack(v)
	}
	return out
}

// Parents unpacks a run's values into per-vertex BFS parents.
func (b *BFS) Parents(values []uint64) []graph.VertexID {
	out := make([]graph.VertexID, len(values))
	for i, v := range values {
		_, p := unpack(v)
		out[i] = graph.VertexID(p)
	}
	return out
}

// WCC computes weakly-connected components by label propagation over
// the symmetrized edge direction the caller provides (for a directed
// graph, store it symmetrized or accept forward-reachability labels).
// Value = (label, changedAtIter+1).
type WCC struct{}

// Name implements Program.
func (WCC) Name() string { return "wcc" }

// Init implements Program: every vertex starts in its own component,
// marked changed so that iteration 0 scatters everything.
func (WCC) Init(v graph.VertexID) uint64 { return pack(uint32(v), 0) }

// Scatter implements Program: propagate the label if it changed in the
// previous iteration (or initially).
func (WCC) Scatter(iter int, src graph.VertexID, srcVal uint64, dst graph.VertexID, weight float32) (uint64, bool) {
	label, changedAt := unpack(srcVal)
	if int(changedAt) == iter {
		return uint64(label), true
	}
	return 0, false
}

// Active implements SourceFilter: only a label that changed in the
// previous iteration (or initially) is propagated.
func (WCC) Active(iter int, val uint64) bool {
	_, changedAt := unpack(val)
	return int(changedAt) == iter
}

// BeginGather implements Program.
func (WCC) BeginGather(iter int, val uint64) uint64 { return val }

// Apply implements Program: keep the minimum label.
func (WCC) Apply(iter int, val, payload uint64) (uint64, bool) {
	label, changedAt := unpack(val)
	if uint32(payload) < label {
		return pack(uint32(payload), uint32(iter)+1), true
	}
	_ = changedAt
	return val, false
}

// EndGather implements Program: report vertices whose label changed this
// iteration.
func (WCC) EndGather(iter int, val uint64) (uint64, bool) {
	_, changedAt := unpack(val)
	return val, int(changedAt) == iter+1
}

// Converged implements Program.
func (WCC) Converged(iter int, changes uint64, emitted int64) bool {
	return changes == 0
}

// Labels unpacks component labels.
func (WCC) Labels(values []uint64) []uint32 {
	out := make([]uint32, len(values))
	for i, v := range values {
		out[i], _ = unpack(v)
	}
	return out
}

// PageRank runs a fixed number of damped power iterations. Value packs
// (rank float32, out-degree uint32); the gather phase reuses the rank
// field as the incoming-mass accumulator.
type PageRank struct {
	N          uint64
	Iterations int
	Damping    float64
	// Degrees must hold each vertex's out-degree (see graph.Degrees).
	Degrees []uint32
}

// NewPageRank returns a PageRank program for a graph with the given
// out-degrees.
func NewPageRank(degrees []uint32, iterations int) *PageRank {
	return &PageRank{N: uint64(len(degrees)), Iterations: iterations, Damping: 0.85, Degrees: degrees}
}

// Name implements Program.
func (pr *PageRank) Name() string { return "pagerank" }

func packRank(rank float32, deg uint32) uint64 {
	return pack(math.Float32bits(rank), deg)
}

func unpackRank(v uint64) (float32, uint32) {
	hi, lo := unpack(v)
	return math.Float32frombits(hi), lo
}

// Init implements Program: uniform initial rank.
func (pr *PageRank) Init(v graph.VertexID) uint64 {
	return packRank(float32(1.0/float64(pr.N)), pr.Degrees[v])
}

// Scatter implements Program: send rank/degree along every out-edge.
func (pr *PageRank) Scatter(iter int, src graph.VertexID, srcVal uint64, dst graph.VertexID, weight float32) (uint64, bool) {
	rank, deg := unpackRank(srcVal)
	if deg == 0 {
		return 0, false
	}
	return uint64(math.Float32bits(rank / float32(deg))), true
}

// BeginGather implements Program: zero the accumulator.
func (pr *PageRank) BeginGather(iter int, val uint64) uint64 {
	_, deg := unpackRank(val)
	return packRank(0, deg)
}

// Apply implements Program: accumulate incoming mass.
func (pr *PageRank) Apply(iter int, val, payload uint64) (uint64, bool) {
	acc, deg := unpackRank(val)
	return packRank(acc+math.Float32frombits(uint32(payload)), deg), true
}

// EndGather implements Program: damping.
func (pr *PageRank) EndGather(iter int, val uint64) (uint64, bool) {
	acc, deg := unpackRank(val)
	rank := float32((1-pr.Damping)/float64(pr.N)) + float32(pr.Damping)*acc
	return packRank(rank, deg), true
}

// Converged implements Program: fixed iteration count.
func (pr *PageRank) Converged(iter int, changes uint64, emitted int64) bool {
	return iter+1 >= pr.Iterations
}

// Ranks unpacks final PageRank scores.
func (pr *PageRank) Ranks(values []uint64) []float64 {
	out := make([]float64, len(values))
	for i, v := range values {
		r, _ := unpackRank(v)
		out[i] = float64(r)
	}
	return out
}
