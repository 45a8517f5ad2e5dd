package stream

import (
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"fastbfs/internal/errs"
	"fastbfs/internal/graph"
	"fastbfs/internal/obs"
)

// This file implements the parallel scatter path: the edge stream of a
// partition is cut into fixed-size chunks consumed by a pool of worker
// goroutines, mirroring the prototype's multi-threaded streaming
// ("several stream buffers for reading edges and writing updates", §III)
// and the observation in the distributed-BFS literature (Buluç & Madduri)
// that scatter/update generation is embarrassingly parallel once update
// routing is sharded by destination partition.
//
// Determinism contract. Chunk boundaries depend only on the chunk size,
// never on the worker count; each worker writes into a private Shard
// (per-destination-partition update slices plus a stay-edge slice); and
// the engine thread merges shards strictly in chunk order. Concatenating
// in-chunk order over chunks in file order reproduces the sequential
// edge-scan order exactly, so every update file and stay file is
// byte-identical for any worker count, including 1.
//
// Timing contract. Only the engine thread (the Run caller) touches the
// scanner, the shuffler's writers, the stay file and therefore the
// disksim clock; workers do pure compute on decoded edges. Per-chunk
// counters are accumulated in the shard and folded at merge, which keeps
// the simulated-time accounting single-threaded and byte-deterministic.

// Shard is one chunk's private scatter output.
type Shard struct {
	// ByPart holds the chunk's emitted updates pre-routed by destination
	// partition, each slice in edge-scan order.
	ByPart [][]graph.Update
	// Stays holds the chunk's surviving (trim-rule) edges in scan order.
	Stays []graph.Edge

	Scanned int64
	Emitted int64
	Stayed  int64
	// Err aborts the run at this chunk's merge point (edges outside the
	// partition's vertex interval).
	Err error
}

func (s *Shard) reset() {
	for i := range s.ByPart {
		s.ByPart[i] = s.ByPart[i][:0]
	}
	s.Stays = s.Stays[:0]
	s.Scanned, s.Emitted, s.Stayed, s.Err = 0, 0, 0, nil
}

// ScatterFunc classifies one chunk of edges into out. It runs on a
// worker goroutine: it must only read shared state (vertex levels) and
// write to out.
type ScatterFunc func(edges []graph.Edge, out *Shard)

// MergeFunc folds one completed shard into the engine's streams. It runs
// on the engine thread, strictly in chunk order; returning an error
// aborts the scatter. The shard is recycled after the call — do not
// retain its slices.
type MergeFunc func(*Shard) error

// ScatterPool fans partition edge chunks out to Workers goroutines and
// folds the resulting shards back in order. One pool serves a whole
// engine run (its buffers are recycled across partitions and
// iterations); each Run call spawns its workers afresh and joins them
// before returning, so an aborted scatter leaks nothing.
type ScatterPool struct {
	workers    int
	chunkEdges int
	parts      int

	// ChunkCounter and BusyCounter, when non-nil, feed the worker
	// utilization view: chunks processed, and cumulative worker
	// nanoseconds spent classifying (wall time; compare against
	// elapsed scatter time × workers for utilization).
	ChunkCounter *obs.Counter
	BusyCounter  *obs.Counter

	// FaultHook, when non-nil, runs before every chunk classification —
	// a fault-injection seam for chaos testing. A hook that panics
	// exercises the pool's panic isolation: the panic is recovered on
	// the worker (or the inline serial path), converted into a
	// PanicError on the shard, and aborts the run at that chunk's merge
	// point like any other scatter error.
	FaultHook func()

	chunks sync.Pool

	// shards is the free-list of recycled shards, held strongly so their
	// grown update slices survive garbage collections for as long as the
	// pool lives (one run, or many for a pool kept in a per-graph
	// scratch); at most PipelineDepth plus Workers shards ever exist. mu
	// guards it, since workers fetch their own shards.
	mu     sync.Mutex
	shards []*Shard
}

// NewScatterPool sizes a pool: workers goroutines (minimum 1; 1 means
// the serial in-line path), chunkEdges edges per chunk, parts
// destination partitions per shard.
func NewScatterPool(workers, chunkEdges, parts int) *ScatterPool {
	if workers < 1 {
		workers = 1
	}
	if chunkEdges < 1 {
		chunkEdges = 1
	}
	if parts < 1 {
		parts = 1
	}
	return &ScatterPool{workers: workers, chunkEdges: chunkEdges, parts: parts}
}

// Workers returns the pool's worker count.
func (sp *ScatterPool) Workers() int { return sp.workers }

func (sp *ScatterPool) getShard() *Shard {
	var sh *Shard
	sp.mu.Lock()
	if n := len(sp.shards); n > 0 {
		sh, sp.shards = sp.shards[n-1], sp.shards[:n-1]
	}
	sp.mu.Unlock()
	if sh == nil {
		return &Shard{ByPart: make([][]graph.Update, sp.parts)}
	}
	sh.reset()
	return sh
}

func (sp *ScatterPool) putShard(sh *Shard) {
	sp.mu.Lock()
	sp.shards = append(sp.shards, sh)
	sp.mu.Unlock()
}

func (sp *ScatterPool) getChunk() []graph.Edge {
	if v := sp.chunks.Get(); v != nil {
		return v.([]graph.Edge)
	}
	return make([]graph.Edge, sp.chunkEdges)
}

// RunScanner streams sc chunk by chunk through the pool. The scanner is
// consumed on the calling goroutine (its refills charge the clock); the
// caller still owns closing it.
func (sp *ScatterPool) RunScanner(sc *Scanner[graph.Edge], fn ScatterFunc, merge MergeFunc) error {
	next := func() ([]graph.Edge, func(), error) {
		buf := sp.getChunk()
		n, err := sc.NextChunk(buf)
		if err != nil || n == 0 {
			sp.chunks.Put(buf)
			return nil, nil, err
		}
		return buf[:n], func() { sp.chunks.Put(buf) }, nil
	}
	return sp.run(next, fn, merge)
}

// RunSlice runs the pool over an in-memory edge list (the engines'
// in-memory fast path), chunking it into subslices without copying.
func (sp *ScatterPool) RunSlice(edges []graph.Edge, fn ScatterFunc, merge MergeFunc) error {
	off := 0
	next := func() ([]graph.Edge, func(), error) {
		if off >= len(edges) {
			return nil, nil, nil
		}
		end := off + sp.chunkEdges
		if end > len(edges) {
			end = len(edges)
		}
		c := edges[off:end]
		off = end
		return c, nil, nil
	}
	return sp.run(next, fn, merge)
}

// chunkJob carries one chunk to a worker; out (buffered, capacity 1)
// carries the shard back so a worker never blocks on delivering results.
type chunkJob struct {
	edges   []graph.Edge
	release func()
	out     chan *Shard
}

// PipelineDepth is how many chunks may be dispatched ahead of the merge
// frontier. It is a constant — never derived from the worker count —
// because the dispatch loop's alternation of next() (scanner refills:
// simulated reads) and merge() (shuffler/stay appends: simulated
// writes) IS the device-op interleaving the disksim positioning model
// sees. A worker-dependent window would make simulated execution time
// vary with the worker count; a fixed one keeps the clock sequence,
// like the file bytes, worker-invariant. Worker counts above this
// depth can't all be kept busy.
const PipelineDepth = 32

// run is the pool's engine: next yields chunks (nil = end of stream) on
// the calling goroutine, fn classifies them, merge folds shards back in
// chunk order. Serial and parallel modes share the same dispatch/merge
// structure (classification just happens inline vs. on a worker), so
// the sequence of next and merge calls — and everything the simulated
// clock observes — is identical for every worker count. On any error —
// scan, classify or merge — it stops dispatching, joins every worker
// and returns the first error.
func (sp *ScatterPool) run(next func() ([]graph.Edge, func(), error), fn ScatterFunc, merge MergeFunc) error {
	parallel := sp.workers > 1
	var jobs chan chunkJob
	var wg sync.WaitGroup
	if parallel {
		jobs = make(chan chunkJob, sp.workers)
		wg.Add(sp.workers)
		for w := 0; w < sp.workers; w++ {
			go func() {
				defer wg.Done()
				for j := range jobs {
					sh := sp.getShard()
					sp.classify(j.edges, sh, fn)
					if j.release != nil {
						j.release()
					}
					j.out <- sh
				}
			}()
		}
	}

	var pending []chan *Shard
	var firstErr error
	mergeOne := func() {
		sh := <-pending[0]
		pending = pending[1:]
		if firstErr == nil {
			if sh.Err != nil {
				firstErr = sh.Err
			} else {
				firstErr = merge(sh)
			}
		}
		sp.putShard(sh)
	}
	dispatch := func(edges []graph.Edge, release func()) {
		out := make(chan *Shard, 1)
		if parallel {
			jobs <- chunkJob{edges: edges, release: release, out: out}
		} else {
			sh := sp.getShard()
			sp.classify(edges, sh, fn)
			if release != nil {
				release()
			}
			out <- sh
		}
		pending = append(pending, out)
	}
	for firstErr == nil {
		edges, release, err := next()
		if err != nil {
			firstErr = err
			break
		}
		if edges == nil {
			break
		}
		dispatch(edges, release)
		if len(pending) >= PipelineDepth {
			mergeOne()
		}
	}
	if parallel {
		close(jobs)
	}
	for len(pending) > 0 {
		mergeOne()
	}
	wg.Wait()
	return firstErr
}

// PanicError is the error a recovered scatter panic becomes. It wraps
// errs.ErrInternal so the serving layer can map it to HTTP 500, and it
// carries the panic value and the worker's stack for the crash log. The
// panic never escapes the worker goroutine: it aborts only the run that
// raised it, through the same Shard.Err merge path as any scan error.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("scatter panic: %v: %v", e.Value, errs.ErrInternal)
}

func (e *PanicError) Unwrap() error { return errs.ErrInternal }

// classify runs fn over one chunk with utilization accounting. A panic
// in fn (or the FaultHook) is recovered into sh.Err rather than killing
// the process: a long-lived server cannot afford one poisoned chunk
// taking every query down with it.
func (sp *ScatterPool) classify(edges []graph.Edge, sh *Shard, fn ScatterFunc) {
	defer func() {
		if r := recover(); r != nil {
			sh.Err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	if sp.BusyCounter == nil {
		if sp.FaultHook != nil {
			sp.FaultHook()
		}
		fn(edges, sh)
		sp.ChunkCounter.Add(1)
		return
	}
	start := time.Now()
	if sp.FaultHook != nil {
		sp.FaultHook()
	}
	fn(edges, sh)
	sp.BusyCounter.Add(time.Since(start).Nanoseconds())
	sp.ChunkCounter.Add(1)
}
