package main

import (
	"fmt"
	"time"

	"fastbfs/internal/graph"
	"fastbfs/internal/xstream"
)

// workload is one benchmark input set with its exact configuration.
// BENCHMARK.json carries only the name and the why (its schema is
// fixed); everything else lives here and is echoed by every run.
type workload struct {
	Name string
	// Serve selects the HTTP service workloads; otherwise each operation
	// is one fastbfs.Run on the out-of-core engine.
	Serve bool

	Scale      int
	EdgeFactor int
	Store      graph.StoreOptions
	Direction  xstream.Direction
	// MemoryBudget is the engine budget: 16 B/vertex of it makes one
	// partition, and 3× the edge bytes selects the in-memory fast path.
	MemoryBudget uint64
	Workers      int

	// Service configuration and client shape (Serve only). Clients are
	// closed-loop: each sends its next request when the last one
	// answered. A round is RoundOps requests per client between two
	// calibrations.
	BatchSize   int
	BatchWait   time.Duration
	MaxInFlight int
	Clients     int
	RoundOps    int
	// Lockstep makes the clients start each request together, so every
	// batch the service forms holds exactly one request per client.
	// Without it one late request splits a pair into two solo batches
	// and the clients stay out of phase, which changes the work done.
	Lockstep bool

	// MinOps is the least number of timed operations, whatever -seconds
	// says; the exactly-repeating counts are taken over the first MinOps.
	MinOps int
}

const (
	benchScale      = 17
	benchEdgeFactor = 16
	// oocBudget makes 8 partitions of 2^17 vertices (2 MiB of vertex
	// state at 16 B/vertex).
	oocBudget = 256 << 10
	// serveBudget is the daemon's default: the graph fits, so solo
	// queries take the engines' in-memory fast path.
	serveBudget = 1 << 30
	scatterWork = 2
	// rootLevels is the depth every root's BFS tree must have. The
	// depth sets the number of passes over the partitions, hence bytes
	// and time; across seeds 1–12 of this graph 43–82% of the
	// giant-component roots have 7 levels, most others 6 (seeds 5 and 6:
	// half of them), and leaving it free moved device bytes by 15%
	// between seeds for the same code.
	rootLevels = 7
	warmupOps  = 4
	probeRoots = 8
)

var workloads = []workload{
	{
		Name:  "ooc-trim",
		Scale: benchScale, EdgeFactor: benchEdgeFactor,
		Store:        graph.StoreOptions{Codec: graph.CodecFixed, Reverse: true},
		Direction:    xstream.DirectionTopDown,
		MemoryBudget: oocBudget, Workers: scatterWork, MinOps: 32,
	},
	{
		Name:  "ooc-delta-auto",
		Scale: benchScale, EdgeFactor: benchEdgeFactor,
		Store:        graph.StoreOptions{Codec: graph.CodecDelta, ReorderByDegree: true, Reverse: true},
		Direction:    xstream.DirectionAuto,
		MemoryBudget: oocBudget, Workers: scatterWork, MinOps: 32,
	},
	{
		Name:  "serve-solo",
		Serve: true,
		Scale: benchScale, EdgeFactor: benchEdgeFactor,
		Store:        graph.StoreOptions{Codec: graph.CodecFixed, Reverse: true},
		Direction:    xstream.DirectionTopDown,
		MemoryBudget: serveBudget, Workers: scatterWork,
		BatchSize: 0, MaxInFlight: 2, Clients: 2, RoundOps: 8, MinOps: 64,
	},
	{
		Name:  "serve-batched",
		Serve: true,
		Scale: benchScale, EdgeFactor: benchEdgeFactor,
		Store:        graph.StoreOptions{Codec: graph.CodecFixed, Reverse: true},
		Direction:    xstream.DirectionTopDown,
		MemoryBudget: serveBudget, Workers: scatterWork,
		BatchSize: 32, BatchWait: 2 * time.Millisecond, MaxInFlight: 4, Clients: 2, RoundOps: 1, MinOps: 32, Lockstep: true,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// partitions is the partition count MemoryBudget yields on this graph.
func (w *workload) partitions() int {
	return graph.PartitionsForMemory(1<<uint(w.Scale), xstream.PerVertexMemBytes, w.MemoryBudget)
}

// describe is the configuration echo printed at the top of every run.
func (w *workload) describe() string {
	codec := w.Store.Codec
	s := fmt.Sprintf("rmat scale %d, edge factor %d (%d vertices, %d edges); stored codec=%s reorder=%v reverse=%v; "+
		"direction=%s; memory budget %d B => %d partition(s); scatter workers %d",
		w.Scale, w.EdgeFactor, 1<<uint(w.Scale), w.EdgeFactor<<uint(w.Scale), codec, w.Store.ReorderByDegree, w.Store.Reverse,
		w.Direction, w.MemoryBudget, w.partitions(), w.Workers)
	if !w.Serve {
		return s + fmt.Sprintf("; operation = fastbfs.Run(EngineFastBFS), one at a time, distinct giant-component roots of %d BFS levels; "+
			"%d warm-up, at least %d timed, calibration around every operation", rootLevels, warmupOps, w.MinOps)
	}
	return s + fmt.Sprintf("; service BatchSize=%d BatchWait=%s MaxInFlight=%d behind httptest; operation = POST /query "+
		"{root, no_cache}, giant-component roots of %d BFS levels; %d closed-loop clients (lockstep=%v), rounds of %d requests per client with calibration between rounds; "+
		"%d warm-up requests per client, at least %d timed",
		w.BatchSize, w.BatchWait, w.MaxInFlight, rootLevels, w.Clients, w.Lockstep, w.RoundOps, warmupOps, w.MinOps)
}
