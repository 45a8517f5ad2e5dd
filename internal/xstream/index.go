package xstream

import (
	"encoding/binary"

	"fastbfs/internal/graph"
)

// adjIndex is a resident graph's adjacency index (DESIGN.md §16): what
// lets a BFS over it read the frontier's edges and no others.
//
// The in-half lists every vertex's in-neighbours in stored edge order.
// That order is what keeps an indexed traversal's parents those of the
// edge-list loop (engine.go): among a vertex's in-neighbours on the
// frontier, the first in its in-list is the one whose edge sits earliest
// in the stored list — first-update-wins, with no edge position kept.
//
// The out-half is only ever expanded whole, to mark what a frontier
// vertex reaches, so its order is free: each out-list is ascending and
// stored as uvarint gaps. Together they hold less than the edge list
// does — 4 bytes an edge for the in-half, 1 to 5 for the out-half (under
// 2 on an R-MAT graph) and 20 a vertex of offsets and degrees.
type adjIndex struct {
	// in[inOff[v]:inOff[v+1]] are v's in-neighbours.
	inOff []uint64
	in    []graph.VertexID
	// out[outOff[v]:outOff[v+1]] holds v's outDeg[v] out-neighbours, each
	// as its gap from the one before (the first from 0).
	outOff []uint64
	out    []byte
	outDeg []uint32
}

func (ix *adjIndex) bytes() int64 {
	if ix == nil {
		return 0
	}
	return int64(len(ix.inOff)+len(ix.outOff))*8 + int64(len(ix.in)+len(ix.outDeg))*4 + int64(len(ix.out))
}

func (ix *adjIndex) inDeg(v graph.VertexID) uint64 { return ix.inOff[v+1] - ix.inOff[v] }

// buildIndex indexes a validated edge list. Apart from the index itself
// it holds one array of vertex-sized state, nothing the size of the list.
func buildIndex(vertices uint64, edges []graph.Edge) *adjIndex {
	// In-half: a stable counting sort of the sources by destination. The
	// offsets double as the placement cursors — off[v+1] is where v's list
	// starts, and placing advances it to where v+1's does.
	off := make([]uint64, vertices+2)
	for _, e := range edges {
		off[uint64(e.Dst)+2]++
	}
	for v := 2; v < len(off); v++ {
		off[v] += off[v-1]
	}
	in := make([]graph.VertexID, len(edges))
	for _, e := range edges {
		in[off[uint64(e.Dst)+1]] = e.Src
		off[uint64(e.Dst)+1]++
	}
	ix := &adjIndex{inOff: off[:vertices+1], in: in}

	// Out-half. Walking the in-half by destination meets each source's
	// out-neighbours in ascending order, so every gap is known without a
	// sort: one walk sizes the lists, a second writes them.
	type cursor struct {
		last graph.VertexID // the source's out-neighbour before this one
		deg  uint32
		pos  uint64 // bytes the list needs, then where its next gap goes
	}
	cur := make([]cursor, vertices)
	for v := range cur {
		for _, u := range in[ix.inOff[v]:ix.inOff[v+1]] {
			c := &cur[u]
			c.pos += uint64(graph.UvarintLen(uint64(uint32(v) - uint32(c.last))))
			c.last = graph.VertexID(v)
			c.deg++
		}
	}
	ix.outOff, ix.outDeg = make([]uint64, vertices+1), make([]uint32, vertices)
	for v := range cur {
		c := &cur[v]
		ix.outOff[v+1], ix.outDeg[v] = ix.outOff[v]+c.pos, c.deg
		c.last, c.pos = 0, ix.outOff[v]
	}
	ix.out = make([]byte, ix.outOff[vertices])
	for v := range cur {
		for _, u := range in[ix.inOff[v]:ix.inOff[v+1]] {
			c := &cur[u]
			c.pos += uint64(binary.PutUvarint(ix.out[c.pos:], uint64(uint32(v)-uint32(c.last))))
			c.last = graph.VertexID(v)
		}
	}
	return ix
}

// topDown expands level iter's frontier: every unvisited out-neighbour
// becomes level iter+1, joins next and takes the frontier vertex that
// found it as its parent. A vertex two frontier vertices reach is
// contested — which of their edges is stored first, the expansion order
// cannot say — so it is left parentless and a second pass over next gives
// it the first in-neighbour at level iter. examined counts the adjacency
// entries read.
func (ix *adjIndex) topDown(frontier, next []graph.VertexID, level []uint32, parent []graph.VertexID, iter uint32) ([]graph.VertexID, uint64) {
	var examined uint64
	for _, u := range frontier {
		examined += uint64(ix.outDeg[u])
		v := graph.VertexID(0)
		for list := ix.out[ix.outOff[u]:ix.outOff[u+1]]; len(list) > 0; {
			gap, n := binary.Uvarint(list)
			list = list[n:]
			v += graph.VertexID(gap)
			switch level[v] {
			case NoLevel:
				level[v], parent[v] = iter+1, u
				next = append(next, v)
			case iter + 1:
				if parent[v] != u {
					parent[v] = graph.NoVertex
				}
			}
		}
	}
	for _, v := range next {
		if parent[v] != graph.NoVertex {
			continue
		}
		for i, u := range ix.in[ix.inOff[v]:ix.inOff[v+1]] {
			if level[u] == iter {
				parent[v] = u
				examined += uint64(i) + 1
				break
			}
		}
	}
	return next, examined
}

// bottomUp forms level iter+1 from the other side: every unvisited vertex
// reads its in-list until it meets a member of the frontier, set in bits,
// which becomes its parent. examined counts the adjacency entries read.
func (ix *adjIndex) bottomUp(frontier, next []graph.VertexID, bits *Bitset, level []uint32, parent []graph.VertexID, iter uint32) ([]graph.VertexID, uint64) {
	bits.Clear()
	for _, u := range frontier {
		bits.Set(u)
	}
	var examined uint64
	for v, l := range level {
		if l != NoLevel {
			continue
		}
		in := ix.in[ix.inOff[v]:ix.inOff[v+1]]
		read := len(in)
		for i, u := range in {
			if bits.Get(u) {
				level[v], parent[v] = iter+1, u
				next = append(next, graph.VertexID(v))
				read = i + 1
				break
			}
		}
		examined += uint64(read)
	}
	return next, examined
}
