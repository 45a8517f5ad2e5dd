package xstream

import (
	"fmt"

	"fastbfs/internal/errs"
	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
	"fastbfs/internal/stream"
)

// csr is a graph's resident form (DESIGN.md §16): its stored edge file as
// compressed sparse rows. The store sorts the file by source, stably, so
// the out-lists in stored order are the edge list less its source column,
// and walking them in source order is reading the list.
//
// The in-half, which a prepared unweighted graph adds (addIn), lists every
// vertex's in-neighbours in that same order. That order is what keeps an
// indexed traversal's parents those of the one-shot run: among a vertex's
// in-neighbours on the frontier, the first in its in-list is the one whose
// edge sits earliest in the stored list — first-update-wins, with no edge
// position kept.
type csr struct {
	// out[outOff[u]:outOff[u+1]] are u's out-neighbours, and the same span
	// of weights their weights (nil for an unweighted graph).
	outOff  []uint64
	out     []graph.VertexID
	weights []float32
	// in[inOff[v]:inOff[v+1]] are v's in-neighbours; nil until addIn.
	inOff []uint64
	in    []graph.VertexID
}

func (g *csr) bytes() int64 {
	if g == nil {
		return 0
	}
	return int64(len(g.outOff)+len(g.inOff))*8 + int64(len(g.out)+len(g.in)+len(g.weights))*4
}

func (g *csr) outDeg(u graph.VertexID) uint64 { return g.outOff[u+1] - g.outOff[u] }

func (g *csr) inDeg(v graph.VertexID) uint64 { return g.inOff[v+1] - g.inOff[v] }

// loadCSR reads m's stored edge file once (ScanStored) into the out-half
// of its resident form and returns it with the device bytes it consumed.
// The scanner refills as a record-at-a-time read would, so a timing that
// carries a simulation clock is charged the same operation sequence as
// the streaming load it replaces.
func loadCSR(vol storage.Volume, m graph.Meta, tm stream.Timing, bufSize int) (*csr, int64, error) {
	g := &csr{outOff: make([]uint64, m.Vertices+1), out: make([]graph.VertexID, 0, m.Edges)}
	if m.Weighted {
		g.weights = make([]float32, 0, m.Edges)
	}
	read, err := ScanStored(vol, m, tm, bufSize, nil,
		func(edges []graph.Edge, weights []float32) error {
			for _, e := range edges {
				g.out = append(g.out, e.Dst)
				g.outOff[e.Src+1]++
			}
			g.weights = append(g.weights, weights...)
			return nil
		})
	if err != nil {
		return nil, 0, err
	}
	for v := 1; v < len(g.outOff); v++ {
		g.outOff[v] += g.outOff[v-1]
	}
	return g, read, nil
}

// ScanStored is the one checked reader of m's stored edge file: it reads
// the file once, in stored order, through a scanner of bufSize bytes, and
// hands visit each NextChunk of it, decoded into chunks aligned to the
// buffer from s (nil: buffers of the call's own), with the edges' weights
// (nil on an unweighted graph). visit sees only checked edges and keeps
// neither slice. An endpoint outside the graph, a negative weight, a
// source below the one before it (a file stored before the store sorted
// by source; store the graph again) or a record count other than m.Edges
// is errs.ErrCorrupted. It returns the device bytes it consumed.
func ScanStored(vol storage.Volume, m graph.Meta, tm stream.Timing, bufSize int, s *Scratch,
	visit func(edges []graph.Edge, weights []float32) error) (int64, error) {
	name := graph.EdgeFileName(m.Name)
	if s == nil {
		s = new(Scratch)
	}
	var next func() ([]graph.Edge, []float32, error)
	var read func() int64
	if !m.Weighted {
		sc, err := stream.NewEdgeScanner(vol, name, tm, bufSize)
		if err != nil {
			return 0, err
		}
		defer sc.Close()
		chunk := chunk(&s.edgeChunk, alignedChunk(bufSize/graph.EdgeBytes))
		read, next = sc.BytesRead, func() ([]graph.Edge, []float32, error) {
			n, err := sc.NextChunk(chunk)
			return chunk[:n], nil, err
		}
	} else {
		sc, err := stream.NewScanner(vol, name, tm, bufSize, graph.WEdgeBytes, graph.GetWEdge)
		if err != nil {
			return 0, err
		}
		defer sc.Close()
		wedges := chunk(&s.wedges, alignedChunk(bufSize/graph.WEdgeBytes))
		chunk, weights := chunk(&s.edgeChunk, len(wedges)), chunk(&s.weights, len(wedges))
		read, next = sc.BytesRead, func() ([]graph.Edge, []float32, error) {
			n, err := sc.NextChunk(wedges)
			for i, we := range wedges[:n] {
				chunk[i], weights[i] = graph.Edge{Src: we.Src, Dst: we.Dst}, we.Weight
			}
			return chunk[:n], weights[:n], err
		}
	}
	var n uint64
	last := graph.VertexID(0)
	for {
		edges, weights, err := next()
		if err != nil {
			return 0, err
		}
		if len(edges) == 0 {
			break
		}
		if n += uint64(len(edges)); n > m.Edges {
			return 0, fmt.Errorf("xstream: %w: %s holds more than the %d edges its config declares", errs.ErrCorrupted, name, m.Edges)
		}
		for i, e := range edges {
			if uint64(e.Src) >= m.Vertices || uint64(e.Dst) >= m.Vertices {
				return 0, fmt.Errorf("xstream: %w: %w", errs.ErrCorrupted, m.CheckEdge(e))
			}
			if e.Src < last {
				return 0, descending(name, e.Src, last)
			}
			if weights != nil && weights[i] < 0 {
				return 0, fmt.Errorf("xstream: %w: negative weight on %d->%d", errs.ErrCorrupted, e.Src, e.Dst)
			}
			last = e.Src
		}
		if err := visit(edges, weights); err != nil {
			return 0, err
		}
	}
	if n < m.Edges {
		return 0, fmt.Errorf("xstream: %w: %s holds fewer than the %d edges its config declares", errs.ErrCorrupted, name, m.Edges)
	}
	return read(), nil
}

// addIn adds the in-half: a stable counting sort of the sources by
// destination, over the out-lists in stored order. The offsets double as
// the placement cursors — off[v+1] is where v's list starts, and placing
// advances it to where v+1's does.
func (g *csr) addIn() {
	vertices := len(g.outOff) - 1
	off := make([]uint64, vertices+2)
	for _, v := range g.out {
		off[uint64(v)+2]++
	}
	for v := 2; v < len(off); v++ {
		off[v] += off[v-1]
	}
	in := make([]graph.VertexID, len(g.out))
	for u := 0; u < vertices; u++ {
		for _, v := range g.out[g.outOff[u]:g.outOff[u+1]] {
			in[off[uint64(v)+1]] = graph.VertexID(u)
			off[uint64(v)+1]++
		}
	}
	g.inOff, g.in = off[:vertices+1], in
}

// topDown expands level iter's frontier: every unvisited out-neighbour
// becomes level iter+1, joins next and takes the frontier vertex that
// found it as its parent. A vertex two frontier vertices reach is
// contested — which of their edges is stored first, the expansion order
// cannot say — so it is left parentless and a second pass over next gives
// it the first in-neighbour at level iter. examined counts the adjacency
// entries read.
func (g *csr) topDown(frontier, next []graph.VertexID, level []uint32, parent []graph.VertexID, iter uint32) ([]graph.VertexID, uint64) {
	var examined uint64
	for _, u := range frontier {
		list := g.out[g.outOff[u]:g.outOff[u+1]]
		examined += uint64(len(list))
		for _, v := range list {
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
		for i, u := range g.in[g.inOff[v]:g.inOff[v+1]] {
			if level[u] == iter {
				parent[v] = u
				examined += uint64(i) + 1
				break
			}
		}
	}
	return next, examined
}

// bottomUp forms level iter+1 from the other side: every open vertex reads
// its in-list until it meets a member of the frontier, set in bits, which
// becomes its parent. The open vertices are the unvisited ones with an
// in-edge, in id order: the run's first bottom-up level (sweep) finds them
// among all V, and each level keeps in open those it leaves parentless and
// drops those a top-down level visited since — FastBFS's trimming
// (PAPER.md §1 idea 2) in RAM. open must have room for every vertex; a
// sweep writes it below the vertex it reads, a walk where it has read. It
// returns next, open, the adjacency entries read and next's out- and
// in-degree sums.
func (g *csr) bottomUp(frontier, next, open []graph.VertexID, sweep bool, bits *Bitset, level []uint32, parent []graph.VertexID, iter uint32) (_, _ []graph.VertexID, examined, nextOut, nextIn uint64) {
	bits.Clear()
	for _, u := range frontier {
		bits.Set(u)
	}
	n := len(open)
	if sweep {
		n = len(level)
	}
	kept := open[:0]
	for i := 0; i < n; i++ {
		v := graph.VertexID(i)
		if !sweep {
			v = open[i]
		}
		in := g.in[g.inOff[v]:g.inOff[v+1]]
		if level[v] != NoLevel || len(in) == 0 {
			continue
		}
		j := 0
		for j < len(in) && !bits.Get(in[j]) {
			j++
		}
		if j == len(in) {
			examined += uint64(j)
			kept = append(kept, v)
			continue
		}
		examined += uint64(j) + 1
		level[v], parent[v] = iter+1, in[j]
		next = append(next, v)
		nextOut, nextIn = nextOut+g.outDeg(v), nextIn+uint64(len(in))
	}
	return next, kept, examined, nextOut, nextIn
}
