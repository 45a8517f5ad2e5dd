package algo

import (
	"fmt"
	"math/bits"

	"fastbfs/internal/errs"
	"fastbfs/internal/graph"
)

// MaxBatchRoots is the widest batch one BatchBFS run can carry: the
// per-vertex value packs a 32-bit seen mask next to a 32-bit frontier
// mask, and the update payload packs the emitting frontier mask next to
// the 32-bit source vertex, so one bit per root is all there is.
const MaxBatchRoots = 32

// BatchBFS is bit-parallel multi-source BFS in the style of Then et
// al.'s MSBFS, extended so that every root's full BFS tree — levels AND
// parents — is recoverable afterwards, byte-identical to a standalone
// single-source run of the same engine options.
//
// The packed vertex value carries only the bit-parallel traversal
// state: value = (frontierMask << 32) | seenMask, where bit r of
// seenMask says root r has reached the vertex and bit r of frontierMask
// says it did so in the previous iteration. One pass over the edges per
// iteration serves every root at once: an edge whose source is on any
// root's frontier emits a single update (frontierMask, src) no matter
// how many roots share it — that sharing is where the device-byte
// amortization comes from (DESIGN.md §13).
//
// Per-root trees live in program-owned RAM side arrays, filled in
// ApplyTo (the engine's loop is single-threaded, so no locking).
// Equivalence to a standalone run holds because, for each root bit r,
// the subsequence of updates carrying r is exactly the update stream a
// solo run from r would produce, reaching each vertex in the same
// stored-edge order — so the solo engines' first-update-wins parent
// rule picks the same parent, and first discovery happens at the same
// iteration.
//
// The pass over the device is what a batch shares, so the serving layer
// forms batches only out of core; over a resident prepared graph a
// BatchBFS is a Program like any other, walking the out-lists.
type BatchBFS struct {
	rootBit map[graph.VertexID]int
	roots   []graph.VertexID
	// levels, parents and visited are the trees, one a root in bit order.
	levels  [][]uint32
	parents [][]graph.VertexID
	visited []uint64
}

// NewBatchBFS builds a batch over distinct roots on a graph with the
// given vertex count. More than MaxBatchRoots roots, zero roots, a
// duplicate root or a root outside the vertex space fail with
// errs.ErrBadOptions.
func NewBatchBFS(roots []graph.VertexID, vertices uint64) (*BatchBFS, error) {
	if len(roots) == 0 {
		return nil, fmt.Errorf("algo: batch bfs needs at least one root: %w", errs.ErrBadOptions)
	}
	if len(roots) > MaxBatchRoots {
		return nil, fmt.Errorf("algo: batch of %d roots exceeds the %d-bit frontier mask: %w", len(roots), MaxBatchRoots, errs.ErrBadOptions)
	}
	b := &BatchBFS{
		rootBit: make(map[graph.VertexID]int, len(roots)),
		roots:   append([]graph.VertexID(nil), roots...),
		levels:  make([][]uint32, len(roots)),
		parents: make([][]graph.VertexID, len(roots)),
		visited: make([]uint64, len(roots)),
	}
	for i, r := range roots {
		if uint64(r) >= vertices {
			return nil, fmt.Errorf("algo: batch root %d outside vertex space [0,%d): %w", r, vertices, errs.ErrBadOptions)
		}
		if _, dup := b.rootBit[r]; dup {
			return nil, fmt.Errorf("algo: duplicate batch root %d: %w", r, errs.ErrBadOptions)
		}
		b.rootBit[r] = i
		lv := make([]uint32, vertices)
		par := make([]graph.VertexID, vertices)
		for v := range lv {
			lv[v] = NoLevel
			par[v] = graph.NoVertex
		}
		b.levels[i] = lv
		b.parents[i] = par
	}
	return b, nil
}

// Name implements Program.
func (b *BatchBFS) Name() string { return "batchbfs" }

// Init implements Program: a root vertex starts seen by and on the
// frontier of every root bit it carries, and its tree records level 0
// with itself as parent — the same self-parent convention as the
// standalone engines.
func (b *BatchBFS) Init(v graph.VertexID) uint64 {
	i, ok := b.rootBit[v]
	if !ok {
		return 0
	}
	m := uint32(1) << uint(i)
	b.levels[i][v], b.parents[i][v], b.visited[i] = 0, v, 1
	return pack(m, m)
}

// Scatter implements Program: one update per edge whose source is on
// any root's frontier, carrying the whole frontier mask plus the source
// for parent recovery.
func (b *BatchBFS) Scatter(iter int, src graph.VertexID, srcVal uint64, dst graph.VertexID, weight float32) (uint64, bool) {
	frontier, _ := unpack(srcVal)
	if frontier == 0 {
		return 0, false
	}
	return pack(frontier, uint32(src)), true
}

// BeginGather implements Program: the previous iteration's frontier is
// consumed; discoveries of this iteration build the next one.
func (b *BatchBFS) BeginGather(iter int, val uint64) uint64 {
	_, seen := unpack(val)
	return pack(0, seen)
}

// Apply implements Program but must never run: BatchBFS records parent
// trees per destination vertex, so the engine routes updates through
// ApplyTo instead.
func (b *BatchBFS) Apply(iter int, val, payload uint64) (uint64, bool) {
	panic("algo: BatchBFS needs the DstApplier gather path")
}

// ApplyTo implements DstApplier: roots whose bit is in the payload but
// not yet in the seen mask discover dst this iteration, through the
// payload's source — and because updates are applied in stored-edge
// order, the first such update per root bit picks the same parent a
// standalone run would.
func (b *BatchBFS) ApplyTo(iter int, dst graph.VertexID, val, payload uint64) (uint64, bool) {
	mask, src := unpack(payload)
	frontier, seen := unpack(val)
	fresh := mask &^ seen
	if fresh == 0 {
		return val, false
	}
	for m := fresh; m != 0; {
		i := bits.TrailingZeros32(m)
		m &^= 1 << uint(i)
		b.levels[i][dst] = uint32(iter) + 1
		b.parents[i][dst] = graph.VertexID(src)
		b.visited[i]++
	}
	return pack(frontier|fresh, seen|fresh), true
}

// EndGather implements Program.
func (b *BatchBFS) EndGather(iter int, val uint64) (uint64, bool) { return val, false }

// Converged implements Program: stop once no root emitted anything —
// each root's tree stopped growing at its own convergence iteration and
// later iterations cannot touch it (its frontier bit never reappears).
func (b *BatchBFS) Converged(iter int, changes uint64, emitted int64) bool { return emitted == 0 }

// Roots returns the batch's roots in bit order.
func (b *BatchBFS) Roots() []graph.VertexID { return b.roots }

// RootIndex returns root's bit index, or -1 if it is not in the batch.
func (b *BatchBFS) RootIndex(root graph.VertexID) int {
	if i, ok := b.rootBit[root]; ok {
		return i
	}
	return -1
}

// LevelsOf returns root i's per-vertex BFS levels (NoLevel =
// unreached). The slice is owned by the program; treat it as read-only.
func (b *BatchBFS) LevelsOf(i int) []uint32 { return b.levels[i] }

// ParentsOf returns root i's per-vertex BFS parents (graph.NoVertex =
// unreached, the root is its own parent). Read-only, like LevelsOf.
func (b *BatchBFS) ParentsOf(i int) []graph.VertexID { return b.parents[i] }

// VisitedOf is the number of vertices root i reached, counted as each
// was.
func (b *BatchBFS) VisitedOf(i int) uint64 { return b.visited[i] }
