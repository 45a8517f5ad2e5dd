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

// loadCSR reads m's stored edge file once, chunk by chunk, into the
// out-half of its resident form and returns it with the device bytes it
// consumed. It validates what it keeps: every endpoint, the count (records
// past it included) and that sources never decrease — a file that breaks
// the last was stored before the store sorted by source, and must be
// stored again. The scanner refills as a record-at-a-time read would, so a
// timing that carries a simulation clock is charged the same operation
// sequence as the streaming load it replaces.
func loadCSR(vol storage.Volume, m graph.Meta, tm stream.Timing, bufSize int) (*csr, int64, error) {
	name := graph.EdgeFileName(m.Name)
	g := &csr{outOff: make([]uint64, m.Vertices+1), out: make([]graph.VertexID, m.Edges)}
	var read int64
	var err error
	if !m.Weighted {
		var sc *stream.Scanner[graph.Edge]
		if sc, err = stream.NewEdgeScanner(vol, name, tm, bufSize); err == nil {
			read, err = fillCSR(g, m, sc, bufSize/graph.EdgeBytes, func(_ int, e graph.Edge) (graph.Edge, error) { return e, nil })
		}
	} else {
		g.weights = make([]float32, m.Edges)
		var sc *stream.Scanner[graph.WEdge]
		if sc, err = stream.NewScanner(vol, name, tm, bufSize, graph.WEdgeBytes, graph.GetWEdge); err == nil {
			read, err = fillCSR(g, m, sc, bufSize/graph.WEdgeBytes, func(i int, we graph.WEdge) (graph.Edge, error) {
				if we.Weight < 0 {
					return graph.Edge{}, fmt.Errorf("xstream: %w: negative weight on %d->%d", errs.ErrCorrupted, we.Src, we.Dst)
				}
				g.weights[i] = we.Weight
				return graph.Edge{Src: we.Src, Dst: we.Dst}, nil
			})
		}
	}
	if err != nil {
		return nil, 0, err
	}
	return g, read, nil
}

// fillCSR is loadCSR's scan: every record of sc, as edge makes of the
// i-th, checked and placed; it closes sc. recs is how many records a
// stream buffer holds.
func fillCSR[T any](g *csr, m graph.Meta, sc *stream.Scanner[T], recs int, edge func(i int, rec T) (graph.Edge, error)) (int64, error) {
	defer sc.Close()
	miscount := func(rel string) error {
		return fmt.Errorf("xstream: %w: %s holds %s than the %d edges its config declares",
			errs.ErrCorrupted, graph.EdgeFileName(m.Name), rel, m.Edges)
	}
	buf := make([]T, alignedChunk(recs))
	n, last := 0, graph.VertexID(0)
	for {
		k, err := sc.NextChunk(buf)
		if err != nil {
			return 0, err
		}
		if k == 0 {
			break
		}
		if n+k > len(g.out) {
			return 0, miscount("more")
		}
		for _, rec := range buf[:k] {
			e, err := edge(n, rec)
			if err != nil {
				return 0, err
			}
			if uint64(e.Src) >= m.Vertices || uint64(e.Dst) >= m.Vertices {
				return 0, fmt.Errorf("xstream: %w: %w", errs.ErrCorrupted, m.CheckEdge(e))
			}
			if e.Src < last {
				return 0, fmt.Errorf("xstream: %w: %s: edge %d's source %d follows %d; the file predates sorting by source, store the graph again",
					errs.ErrCorrupted, graph.EdgeFileName(m.Name), n, e.Src, last)
			}
			last = e.Src
			g.out[n] = e.Dst
			g.outOff[e.Src+1]++
			n++
		}
	}
	if n < len(g.out) {
		return 0, miscount("fewer")
	}
	for v := 1; v < len(g.outOff); v++ {
		g.outOff[v] += g.outOff[v-1]
	}
	return sc.BytesRead(), nil
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
