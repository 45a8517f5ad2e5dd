// Package bfs provides the in-memory reference breadth-first search that
// anchors correctness for every out-of-core engine in this repository,
// a Graph500-style parent-tree validator, and the per-level convergence
// statistics behind the paper's Fig. 1 (the fraction of edges still
// useful as the traversal proceeds).
package bfs

import (
	"fmt"
	"math"
	"sort"

	"fastbfs/internal/errs"
	"fastbfs/internal/graph"
)

// NoLevel marks a vertex not reached from the root.
const NoLevel = uint32(math.MaxUint32)

// Result is a BFS tree: per-vertex level and parent.
type Result struct {
	Root    graph.VertexID
	Level   []uint32         // NoLevel if unreached
	Parent  []graph.VertexID // graph.NoVertex if unreached (root's parent is itself)
	Visited uint64           // number of reached vertices (including the root)
}

// Levels returns the depth of the BFS tree (number of non-empty levels).
func (r *Result) Levels() int {
	max := uint32(0)
	found := false
	for _, l := range r.Level {
		if l != NoLevel {
			found = true
			if l > max {
				max = l
			}
		}
	}
	if !found {
		return 0
	}
	return int(max) + 1
}

// CSR is a compressed sparse row adjacency structure built from an edge
// list, with neighbor lists sorted for binary-search membership tests.
type CSR struct {
	Offsets []uint64
	Targets []graph.VertexID
}

// BuildCSR builds the out-adjacency CSR of the edge list.
func BuildCSR(m graph.Meta, edges []graph.Edge) (*CSR, error) {
	offsets := make([]uint64, m.Vertices+1)
	for _, e := range edges {
		if err := m.CheckEdge(e); err != nil {
			return nil, err
		}
		offsets[e.Src+1]++
	}
	for i := 1; i < len(offsets); i++ {
		offsets[i] += offsets[i-1]
	}
	targets := make([]graph.VertexID, len(edges))
	cursor := make([]uint64, m.Vertices)
	for _, e := range edges {
		targets[offsets[e.Src]+cursor[e.Src]] = e.Dst
		cursor[e.Src]++
	}
	for v := uint64(0); v < m.Vertices; v++ {
		seg := targets[offsets[v]:offsets[v+1]]
		sort.Slice(seg, func(i, j int) bool { return seg[i] < seg[j] })
	}
	return &CSR{Offsets: offsets, Targets: targets}, nil
}

// Neighbors returns v's sorted out-neighbors.
func (c *CSR) Neighbors(v graph.VertexID) []graph.VertexID {
	return c.Targets[c.Offsets[v]:c.Offsets[v+1]]
}

// HasEdge reports whether the edge src->dst exists.
func (c *CSR) HasEdge(src, dst graph.VertexID) bool {
	nbrs := c.Neighbors(src)
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= dst })
	return i < len(nbrs) && nbrs[i] == dst
}

// Run performs the reference in-memory BFS from root.
func Run(m graph.Meta, edges []graph.Edge, root graph.VertexID) (*Result, error) {
	if uint64(root) >= m.Vertices {
		return nil, fmt.Errorf("bfs: root %d outside vertex space [0,%d): %w", root, m.Vertices, errs.ErrBadOptions)
	}
	csr, err := BuildCSR(m, edges)
	if err != nil {
		return nil, err
	}
	return RunCSR(m, csr, root), nil
}

// RunCSR performs the reference BFS over a prebuilt CSR.
func RunCSR(m graph.Meta, csr *CSR, root graph.VertexID) *Result {
	res := &Result{
		Root:   root,
		Level:  make([]uint32, m.Vertices),
		Parent: make([]graph.VertexID, m.Vertices),
	}
	for i := range res.Level {
		res.Level[i] = NoLevel
		res.Parent[i] = graph.NoVertex
	}
	res.Level[root] = 0
	res.Parent[root] = root
	res.Visited = 1
	frontier := []graph.VertexID{root}
	for level := uint32(1); len(frontier) > 0; level++ {
		var next []graph.VertexID
		for _, v := range frontier {
			for _, w := range csr.Neighbors(v) {
				if res.Level[w] == NoLevel {
					res.Level[w] = level
					res.Parent[w] = v
					res.Visited++
					next = append(next, w)
				}
			}
		}
		frontier = next
	}
	return res
}

// Validate performs Graph500-style validation of a BFS result against
// the edge list:
//  1. the root has level 0 and is its own parent;
//  2. every reached non-root vertex has a parent with level exactly one
//     less, and the tree edge parent->vertex exists in the graph;
//  3. level/parent reachability agree (reached iff parent set);
//  4. every graph edge spans at most one level (|level(u)-level(v)| <= 1
//     when both ends are reached, and a reached source never points at
//     an unreached destination);
//  5. the visited count matches.
//
// One pass over the edges checks rule 4 and marks, in a V-bit bitmap, each
// vertex whose tree edge it meets; one over the vertices checks the rest.
// An endpoint, root or parent outside the vertex space is an error.
func Validate(m graph.Meta, edges []graph.Edge, res *Result) error {
	if uint64(len(res.Level)) != m.Vertices || uint64(len(res.Parent)) != m.Vertices {
		return fmt.Errorf("bfs: result arrays sized %d/%d, want %d", len(res.Level), len(res.Parent), m.Vertices)
	}
	if uint64(res.Root) >= m.Vertices {
		return fmt.Errorf("bfs: root %d outside vertex space [0,%d)", res.Root, m.Vertices)
	}
	if res.Level[res.Root] != 0 {
		return fmt.Errorf("bfs: root level = %d, want 0", res.Level[res.Root])
	}
	if res.Parent[res.Root] != res.Root {
		return fmt.Errorf("bfs: root parent = %d, want itself", res.Parent[res.Root])
	}
	treeEdge := make([]uint64, (m.Vertices+63)/64)
	for _, e := range edges {
		if err := m.CheckEdge(e); err != nil {
			return err
		}
		if res.Parent[e.Dst] == e.Src {
			treeEdge[e.Dst/64] |= 1 << (e.Dst % 64)
		}
		switch ls, ld := res.Level[e.Src], res.Level[e.Dst]; {
		case ls == NoLevel:
		case ld == NoLevel:
			return fmt.Errorf("bfs: edge %v from reached level %d to unreached vertex", e, ls)
		case int64(ld)-int64(ls) > 1:
			return fmt.Errorf("bfs: edge %v spans levels %d->%d", e, ls, ld)
		}
	}
	var visited uint64
	for v := uint64(0); v < m.Vertices; v++ {
		l, p := res.Level[v], res.Parent[v]
		if (l == NoLevel) != (p == graph.NoVertex) {
			return fmt.Errorf("bfs: vertex %d: level/parent disagree (level=%d parent=%d)", v, l, p)
		}
		if l == NoLevel {
			continue
		}
		visited++
		if graph.VertexID(v) == res.Root {
			continue
		}
		if uint64(p) >= m.Vertices {
			return fmt.Errorf("bfs: vertex %d has parent %d outside vertex space [0,%d)", v, p, m.Vertices)
		}
		if pl := res.Level[p]; pl == NoLevel || pl+1 != l {
			return fmt.Errorf("bfs: vertex %d at level %d has parent %d at level %d", v, l, p, pl)
		}
		if treeEdge[v/64]&(1<<(v%64)) == 0 {
			return fmt.Errorf("bfs: tree edge %d->%d not in graph", p, v)
		}
	}
	if visited != res.Visited {
		return fmt.Errorf("bfs: visited count %d, recorded %d", visited, res.Visited)
	}
	return nil
}

// Equal reports whether two results describe the same level assignment.
// Parents may differ (BFS parent trees are not unique) but levels are.
func Equal(a, b *Result) error {
	if a.Root != b.Root {
		return fmt.Errorf("bfs: roots differ: %d vs %d", a.Root, b.Root)
	}
	if len(a.Level) != len(b.Level) {
		return fmt.Errorf("bfs: level arrays differ in size: %d vs %d", len(a.Level), len(b.Level))
	}
	for v := range a.Level {
		if a.Level[v] != b.Level[v] {
			return fmt.Errorf("bfs: vertex %d: level %d vs %d", v, a.Level[v], b.Level[v])
		}
	}
	if a.Visited != b.Visited {
		return fmt.Errorf("bfs: visited %d vs %d", a.Visited, b.Visited)
	}
	return nil
}

// LevelStats describes one BFS level for the convergence analysis.
type LevelStats struct {
	Level uint32
	// Frontier is the number of vertices discovered at this level.
	Frontier uint64
	// UsefulEdges is the number of edges whose source is in this
	// frontier — the edges that actually produce updates this iteration.
	UsefulEdges uint64
	// LiveEdges is the number of edges still live at the *start* of this
	// level: edges whose source has not yet been visited, plus the
	// frontier's own edges. This is the size a perfectly trimmed stay
	// file would have — the paper's Fig. 1 fractions.
	LiveEdges uint64
}

// Convergence computes the per-level frontier and live-edge profile of a
// BFS from root (Fig. 1: "useful edges keep reducing along with the
// traversal").
func Convergence(m graph.Meta, edges []graph.Edge, root graph.VertexID) ([]LevelStats, error) {
	res, err := Run(m, edges, root)
	if err != nil {
		return nil, err
	}
	levels := res.Levels()
	if levels == 0 {
		return nil, nil
	}
	stats := make([]LevelStats, levels)
	for i := range stats {
		stats[i].Level = uint32(i)
	}
	for v := uint64(0); v < m.Vertices; v++ {
		if l := res.Level[v]; l != NoLevel {
			stats[l].Frontier++
		}
	}
	deg := graph.Degrees(m.Vertices, edges)
	// liveAfter[l] = edges with source level > l or unreached source.
	var unreachedDeg uint64
	usefulAt := make([]uint64, levels)
	for v := uint64(0); v < m.Vertices; v++ {
		l := res.Level[v]
		if l == NoLevel {
			unreachedDeg += uint64(deg[v])
			continue
		}
		usefulAt[l] += uint64(deg[v])
	}
	// LiveEdges at level l = edges of sources at level >= l, plus edges
	// of unreached sources (never trimmed).
	suffix := unreachedDeg
	for l := levels - 1; l >= 0; l-- {
		suffix += usefulAt[l]
		stats[l].LiveEdges = suffix
		stats[l].UsefulEdges = usefulAt[l]
	}
	return stats, nil
}
