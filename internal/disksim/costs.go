package disksim

// Costs is the compute-cost model: seconds of single-threaded CPU work
// per unit of engine activity. Together with the Device models it
// determines the compute/IO balance — and therefore the iowait ratios of
// Fig. 6 and the flat thread curves of Fig. 8 (BFS is I/O-bound, so the
// per-edge compute costs are small relative to per-edge transfer time:
// an 8-byte edge takes ~67 ns to stream from the HDD preset).
type Costs struct {
	// ScatterPerEdge is charged per edge streamed in a scatter phase
	// (locate source vertex, test frontier membership, trim decision).
	ScatterPerEdge float64
	// GatherPerUpdate is charged per update applied in a gather phase.
	GatherPerUpdate float64
	// AppendPerUpdate is charged per update shuffled into an update
	// stream buffer (includes the partition routing).
	AppendPerUpdate float64
	// AppendPerStay is charged per edge appended to a stay buffer.
	AppendPerStay float64
	// PerVertex is charged per vertex loaded, initialized or saved.
	PerVertex float64
	// SortPerEdge is charged per edge per shard-sort pass during
	// GraphChi preprocessing (the "computing-intensive sorting operation"
	// the paper contrasts against, §I). The log factor of the sort is
	// folded in.
	SortPerEdge float64
	// VertexUpdate is charged per vertex update-function invocation in
	// GraphChi's vertex-centric model.
	VertexUpdate float64
	// EdgeVisit is charged per in-edge examined by a GraphChi vertex
	// update function.
	EdgeVisit float64
	// MemBandwidth is the sequential RAM scan rate in bytes/second,
	// charged (as serial compute) when an engine scans an edge list held
	// in memory instead of streaming it from a device.
	MemBandwidth float64
}

// DefaultCosts returns costs calibrated so that disk-based BFS is
// I/O-bound (matching the paper's Fig. 6 and Fig. 8 observations) while
// GraphChi's sort makes it visibly compute-heavier.
func DefaultCosts() Costs {
	return Costs{
		ScatterPerEdge:  12e-9,
		GatherPerUpdate: 20e-9,
		AppendPerUpdate: 12e-9,
		AppendPerStay:   6e-9,
		PerVertex:       8e-9,
		SortPerEdge:     900e-9,
		VertexUpdate:    400e-9,
		EdgeVisit:       160e-9,
		MemBandwidth:    6.4e9,
	}
}
