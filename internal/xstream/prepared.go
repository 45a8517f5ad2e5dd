package xstream

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"
	"unsafe"

	"fastbfs/internal/errs"
	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
	"fastbfs/internal/stream"
)

// PreparedGraph is the load-once, query-many form of a stored graph
// (DESIGN.md §16): the metadata, the stored permutation and — when the
// whole graph fits the memory budget it was prepared under (the InMemory
// rule) — its resident form, the stored edge file as out- and in-lists.
// A long-lived caller builds one with LoadPrepared and hands it to every
// run through Options.Prepared; runs then skip the per-run metadata,
// permutation and edge loads, and a BFS traverses the lists.
//
// Ownership. Everything reachable from the exported fields, from Out and
// from the resident form is shared by every concurrent run and is
// READ-ONLY after LoadPrepared returns: no run writes through those
// slices, and none needs to — the indexed traversal (engine.go) reads
// only the adjacency it is about to use, so it has nothing to trim.
type PreparedGraph struct {
	Meta graph.Meta
	Perm *graph.Permutation // nil unless the dataset was stored reordered

	// Budget is the memory budget the residency decision was made under
	// and Need what InMemory asks of it; Resident() == (Budget >= Need).
	Budget, Need uint64
	// LoadBytes are the device bytes the resident load read and LoadTime
	// the wall time that load and the in-half build took (zero when not
	// resident); LoadRetries counts the transient faults retried while
	// opening the graph.
	LoadBytes   int64
	LoadTime    time.Duration
	LoadRetries int64

	g *csr // nil unless resident; shared, never written
}

// Resident reports whether the graph is held in memory. Nil-safe: a nil
// PreparedGraph is "nothing prepared".
func (pg *PreparedGraph) Resident() bool { return pg != nil && pg.g != nil }

// Out returns the shared resident out-lists: dst[off[u]:off[u+1]] are
// u's out-neighbours in stored order, so walking the sources in id order
// reads the stored edge list, and the same span of weights their weights
// (nil for an unweighted graph: every edge weighs 1). All three are nil
// when not resident. Callers must not write through them.
func (pg *PreparedGraph) Out() (off []uint64, dst []graph.VertexID, weights []float32) {
	if !pg.Resident() {
		return nil, nil, nil
	}
	return pg.g.outOff, pg.g.out, pg.g.weights
}

// ResidentBytes is the memory the resident form holds.
func (pg *PreparedGraph) ResidentBytes() int64 { return pg.g.bytes() }

// Scratch is one run's private working memory: every Runtime takes one
// from the process-wide free-list at construction and gives it back at
// Cleanup, so its buffers keep their grown capacity across iterations and
// across runs, whatever the graph, engine or options. Only memory is
// reused: every run fills what it reads before reading it, and nothing
// read from a volume outlives the run that read it.
type Scratch struct {
	// Values are the algo engine's current and next vertex values.
	Values [2][]uint64
	// Bits is the algo engine's active-source bitmap and the indexed
	// traversal's frontier bitmap.
	Bits []uint64
	// queue holds the indexed traversal's current and next frontier.
	queue [2][]graph.VertexID

	// bufs is the streaming run's buffer free-list (Runtime.Bufs).
	bufs *stream.BufPool
	// level and parent back the one partition's vertex state a streaming
	// run holds at a time (Runtime.InitVerts/LoadVerts); vertRecs,
	// edgeChunk and updChunk are its NextChunk decode targets.
	level     []uint32
	parent    []graph.VertexID
	vertRecs  []vertRec
	edgeChunk []graph.Edge
	updChunk  []graph.Update
	// visited and claimed back the run's vertex bitmaps (Runtime.VisitedBits
	// and the update filter's claims, see filter.go); bestParent a pass's
	// winner table (Runtime.Winners).
	visited, claimed Bitset
	bestParent       []graph.VertexID
	// outDeg backs the run's out-degree table (Runtime.OutDeg), and tails
	// the transposed graph's (kernel.reverseIndex).
	outDeg, tails []uint32
	// perm backs a reordered graph's permutation (Runtime.Perm) when no
	// prepared graph supplies it.
	perm graph.Permutation

	pool                             *stream.ScatterPool
	poolWorkers, poolSize, poolParts int
}

// scratchList is the free-list every run borrows its Scratch from.
var scratchList struct {
	sync.Mutex
	free []*Scratch
}

// maxFreeScratch caps the free-list. A warmed scratch pins vertex-sized
// arrays and a streaming run's peak set of stream buffers, none of it in
// the MemoryBudget accounting, so a burst of N concurrent runs must not
// leave N of them behind for good: releases beyond the cap go to the
// garbage collector. Four is the serving layer's default concurrency; a
// wider service reallocates scratch only for its runs beyond the fourth.
const maxFreeScratch = 4

// acquireScratch pops a scratch off the free-list, or makes an empty one,
// and puts its buffer pool under the poisoning audit if one is installed
// (stream.AuditPools), poisoning its vertex arrays too.
func acquireScratch() *Scratch {
	scratchList.Lock()
	var s *Scratch
	if n := len(scratchList.free); n > 0 {
		s, scratchList.free[n-1] = scratchList.free[n-1], nil
		scratchList.free = scratchList.free[:n-1]
	}
	scratchList.Unlock()
	if s == nil {
		s = &Scratch{bufs: stream.NewBufPool()}
	}
	if s.bufs.Reattach() {
		s.poison()
	}
	return s
}

// releaseScratch returns a scratch to the free-list, or drops it when the
// list is full. The caller must hold no reference into it afterwards;
// under the audit its vertex arrays are poisoned, like a returned buffer.
func releaseScratch(s *Scratch) {
	if s.bufs.Reattach() {
		s.poison()
	}
	scratchList.Lock()
	if len(scratchList.free) < maxFreeScratch {
		scratchList.free = append(scratchList.free, s)
	}
	scratchList.Unlock()
}

// poison fills every vertex-sized array and decode target of s with 0xA5
// bytes, so a run that trusts what an earlier run left there computes
// visibly wrong answers under the audit. (The permutation needs none: a
// load rewrites all of it.)
func (s *Scratch) poison() {
	for _, a := range [][]uint64{s.Values[0], s.Values[1], s.Bits, s.visited.w, s.claimed.w} {
		poison(a)
	}
	for _, a := range [][]graph.VertexID{s.queue[0], s.queue[1], s.parent, s.bestParent} {
		poison(a)
	}
	for _, a := range [][]uint32{s.level, s.outDeg, s.tails} {
		poison(a)
	}
	poison(s.updChunk)
	poison(s.edgeChunk)
	poison(s.vertRecs)
}

// poison fills a slice's whole capacity with 0xA5 bytes; T holds no
// pointers.
func poison[T any](s []T) {
	if s = s[:cap(s)]; len(s) > 0 {
		stream.Poison(unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0]))))
	}
}

// ValuePair returns the two value arrays sized to n vertices.
func (s *Scratch) ValuePair(n int) (cur, next []uint64) {
	return chunk(&s.Values[0], n), chunk(&s.Values[1], n)
}

// Bitmap returns the bitmap sized to one bit per vertex of n; the caller
// writes every word before reading it.
func (s *Scratch) Bitmap(n int) []uint64 {
	return chunk(&s.Bits, (n+63)/64)
}

// ScatterPool returns the scratch's scatter pool for the given worker
// count, chunk size and destination-partition count — kept across runs,
// so its shards and chunk buffers are too; the caller sets the per-run
// counters and fault hook.
func (s *Scratch) ScatterPool(workers, chunkEdges, parts int) *stream.ScatterPool {
	if s.pool == nil || s.poolWorkers != workers || s.poolSize != chunkEdges || s.poolParts != parts {
		s.pool = stream.NewScatterPool(workers, chunkEdges, parts)
		s.poolWorkers, s.poolSize, s.poolParts = workers, chunkEdges, parts
	}
	return s.pool
}

// alignedChunk is the NextChunk length for a scanner whose buffer holds
// recs records: it divides recs, so a chunk never straddles a refill
// and the refills stay where record-at-a-time reading puts them — each
// just before the first record of a new buffer, after everything done
// for the records before it — and it is halved toward a cache-sized
// 8192 records for as long as recs stays even.
func alignedChunk(recs int) int {
	if recs < 1 {
		return 1
	}
	for recs > 8192 && recs%2 == 0 {
		recs /= 2
	}
	return recs
}

// chunk returns *buf resized to n elements, contents arbitrary,
// reallocating only when its capacity falls short.
func chunk[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// InMemoryNeed is the memory budget at which a graph runs in memory:
// InMemoryFactor times its edge data plus two sets of vertex state. The
// resident form takes at most one share of the edge data and one set of
// vertex state — 4 bytes an edge for each half (plus 4 for a weight) and
// 8 a vertex for each half's offsets — so ResidentBytes never exceeds it;
// a one-shot run holds the out-half only. The rest is the runs'
// vertex-sized arrays.
func InMemoryNeed(m graph.Meta) uint64 {
	return InMemoryFactor*m.DataBytes() + 2*PerVertexMemBytes*m.Vertices
}

// faultVolume applies FASTBFS_FAULTS — the single chaos entry point, so
// every engine, the CLI and the serving layer get seeded fault injection
// uniformly. A volume that is already Faulty (a test drove the injection
// itself) is left alone.
func faultVolume(vol storage.Volume) (storage.Volume, error) {
	spec := os.Getenv("FASTBFS_FAULTS")
	if spec == "" {
		return vol, nil
	}
	if _, already := vol.(*storage.Faulty); already {
		return vol, nil
	}
	fs, err := storage.ParseFaultSpec(spec)
	if err != nil {
		return nil, fmt.Errorf("xstream: FASTBFS_FAULTS: %w: %v", errs.ErrBadOptions, err)
	}
	if fs.Enabled() {
		vol = storage.NewFaulty(vol, fs)
	}
	return vol, nil
}

// newRetrier builds a run's transient-fault retry policy from its options.
func newRetrier(ctx context.Context, opts Options) *stream.Retrier {
	retry := stream.NewRetrier(ctx, uint64(opts.Root)+1)
	retry.Attempts = opts.RetryAttempts
	return retry
}

// loadMetaPerm reads a stored graph's configuration and, for a reordered
// dataset, its permutation sidecar into perm through bufs (nil: a buffer
// of its own), retrying transient faults. It returns perm, or nil for a
// dataset that is not reordered.
func loadMetaPerm(retry *stream.Retrier, vol storage.Volume, graphName string, perm *graph.Permutation, bufs *stream.BufPool) (graph.Meta, *graph.Permutation, error) {
	var m graph.Meta
	if err := retry.Do("load meta "+graphName, func() error {
		var e error
		m, e = graph.LoadMeta(vol, graphName)
		return e
	}); err != nil {
		return graph.Meta{}, nil, err
	}
	if !m.Reordered {
		return m, nil, nil
	}
	if err := retry.Do("load perm "+graphName, func() error { return perm.Load(vol, graphName, m.Vertices, bufs) }); err != nil {
		return graph.Meta{}, nil, err
	}
	return m, perm, nil
}

// LoadPrepared opens graphName once for many runs: it reads and
// validates the metadata and permutation and, when the graph fits
// opts.MemoryBudget, loads and validates the stored edge file into its
// resident form (loadCSR) and adds the in-half — all through the same
// FASTBFS_FAULTS wrapping and transient-fault Retrier as an engine run,
// so a flaky volume is retried and a broken one fails here
// (errs.ErrIOFailed, errs.ErrCorrupted, errs.ErrGraphNotFound) instead
// of failing every later query. Only the budget, stream buffer
// size, retry budget and tracer of opts are used.
func LoadPrepared(ctx context.Context, vol storage.Volume, graphName string, opts Options) (*PreparedGraph, error) {
	opts.SetDefaults("prepared")
	vol, err := faultVolume(vol)
	if err != nil {
		return nil, err
	}
	retry := newRetrier(ctx, opts)
	m, perm, err := loadMetaPerm(retry, vol, graphName, new(graph.Permutation), nil)
	if err != nil {
		return nil, err
	}
	pg := &PreparedGraph{Meta: m, Perm: perm, Budget: opts.MemoryBudget, Need: InMemoryNeed(m)}
	if pg.Budget >= pg.Need {
		start := time.Now()
		g, read, err := loadCSR(vol, m, stream.Timing{Retry: retry}, opts.StreamBufSize)
		if err != nil {
			return nil, err
		}
		g.addIn()
		pg.g, pg.LoadBytes = g, read
		pg.LoadTime = time.Since(start)
	}
	pg.LoadRetries = retry.Retries()
	return pg, nil
}
