package graph

import "fmt"

// Partitioning divides the vertex id space [0, Vertices) into P disjoint,
// contiguous intervals. FastBFS and X-Stream both partition this way: each
// partition owns a vertex-set file (the state of its interval) and an
// out-edge file (every edge whose source falls in the interval). The paper
// notes that "the balance of the vertices becomes the priority" (§II-B)
// because only vertices — never edges — must fit in memory, so intervals
// are split by vertex count, not edge count.
type Partitioning struct {
	vertices uint64
	starts   []VertexID // starts[i] is the first vertex of partition i; len = P+1

	// The even split in closed form, for Of: the first `extra` partitions
	// hold base+1 vertices and cover [0, split); the rest hold base.
	base  uint32
	extra uint32
	split VertexID
}

// NewPartitioning builds an even vertex-interval partitioning of vertices
// into p partitions. It returns an error if p < 1, p exceeds the vertex
// count, or the vertex count exceeds the VertexID space.
func NewPartitioning(vertices uint64, p int) (*Partitioning, error) {
	if p < 1 {
		return nil, fmt.Errorf("graph: partition count %d < 1", p)
	}
	if uint64(p) > vertices {
		return nil, fmt.Errorf("graph: partition count %d exceeds vertex count %d", p, vertices)
	}
	if vertices > uint64(NoVertex) {
		return nil, fmt.Errorf("graph: %d vertices exceeds the VertexID space", vertices)
	}
	starts := make([]VertexID, p+1)
	base := vertices / uint64(p)
	extra := vertices % uint64(p)
	var at uint64
	for i := 0; i < p; i++ {
		starts[i] = VertexID(at)
		at += base
		if uint64(i) < extra {
			at++
		}
	}
	starts[p] = VertexID(vertices)
	return &Partitioning{vertices: vertices, starts: starts,
		base: uint32(base), extra: uint32(extra), split: VertexID(extra * (base + 1))}, nil
}

// P returns the number of partitions.
func (pt *Partitioning) P() int { return len(pt.starts) - 1 }

// Vertices returns the total vertex count across all partitions.
func (pt *Partitioning) Vertices() uint64 { return pt.vertices }

// Interval returns the half-open vertex interval [lo, hi) of partition i.
func (pt *Partitioning) Interval(i int) (lo, hi VertexID) {
	return pt.starts[i], pt.starts[i+1]
}

// Size returns the number of vertices in partition i.
func (pt *Partitioning) Size(i int) uint64 {
	return uint64(pt.starts[i+1] - pt.starts[i])
}

// Of returns the partition index owning vertex v. It panics if v is out
// of range, which indicates a corrupted edge file upstream.
func (pt *Partitioning) Of(v VertexID) int {
	if uint64(v) >= pt.vertices {
		panic(fmt.Sprintf("graph: vertex %d outside id space [0,%d)", v, pt.vertices))
	}
	if v < pt.split {
		return int(uint32(v) / (pt.base + 1))
	}
	return int(pt.extra + uint32(v-pt.split)/pt.base)
}

// Contains reports whether vertex v falls in partition i.
func (pt *Partitioning) Contains(i int, v VertexID) bool {
	return v >= pt.starts[i] && v < pt.starts[i+1]
}

// PartitionsForMemory returns the number of partitions needed so that one
// partition's in-memory footprint fits in memBudget bytes. Per the paper
// (§II-B) a partition's vertex set plus its intermediate buffers must fit
// in memory; perVertexBytes is the in-memory state size per vertex
// (vertex state plus amortized buffer overhead). The result is at least 1
// and never exceeds the vertex count.
func PartitionsForMemory(vertices uint64, perVertexBytes, memBudget uint64) int {
	if memBudget == 0 || perVertexBytes == 0 {
		return 1
	}
	maxVerticesPerPart := memBudget / perVertexBytes
	if maxVerticesPerPart == 0 {
		maxVerticesPerPart = 1
	}
	p := (vertices + maxVerticesPerPart - 1) / maxVerticesPerPart
	if p < 1 {
		p = 1
	}
	if p > vertices {
		p = vertices
	}
	return int(p)
}
