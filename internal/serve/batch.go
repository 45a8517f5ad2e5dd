package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"fastbfs/internal/algo"
	"fastbfs/internal/errs"
	"fastbfs/internal/graph"
	"fastbfs/internal/obs"
	"fastbfs/internal/stream"
)

// batcher coalesces concurrent single-source BFS queries into shared
// algo.BatchBFS runs (DESIGN.md §13): one bit-parallel pass of the algo
// engine's streaming loop for all the roots. It exists only on a service
// whose graph is out of core (New), where that pass over the device is
// what the members share. A query that misses the result cache joins the
// forming batch (only uncapped queries batch, see batchable, so every
// member wants the same run), and the batch executes as one engine run
// once it is full (BatchSize distinct roots) or its hold window
// (BatchWait) expires. Batching follows the group-commit idea: the batch
// also stays joinable while it waits for an execution slot, so an idle
// service answers at near-solo latency while a saturated one grows
// batches and amortizes the graph stream.
//
// The fastbfs and xstream engines give a vertex the parent whose edge
// comes first in stored order, and so does the streaming loop by applying
// updates in that order, so their solo trees match the batch demux
// exactly.
type batcher struct {
	s *GraphService

	// mu guards forming/open and every batch's membership state.
	mu      sync.Mutex
	forming *batch // the joinable batch, nil when none is
	open    int    // unsealed batches, bounded like the solo wait queue
}

func newBatcher(s *GraphService) *batcher {
	return &batcher{s: s}
}

// batchEntry is one query riding a batch.
type batchEntry struct {
	q        Query
	cacheKey string
	useCache bool
	joined   time.Time
	done     chan struct{} // closed once res/err are set

	res  *Result
	err  error
	wait time.Duration // join → execution slot acquired (or batch failed)
	exec time.Duration
	ran  bool // a shared engine run actually executed

	gone     bool // left (cancelled/timed out) before the batch resolved
	resolved bool
}

// batch is one forming or executing group of queries.
type batch struct {
	b *batcher

	// ctx is cancelled with errs.ErrBatchAbandoned once every member
	// leaves, stopping a run nobody is waiting for.
	ctx    context.Context
	cancel context.CancelCauseFunc

	timer    *time.Timer
	holdOnce sync.Once
	hold     chan struct{} // hold window expired
	fullOnce sync.Once
	full     chan struct{} // BatchSize distinct roots joined

	entries []*batchEntry
	rootSet map[graph.VertexID]bool
	live    int
	sealed  bool
}

// batchable reports whether a normalized query may ride a shared run:
// uncapped single-source BFS on a service that batches. Capped queries
// stay solo — the algo engine that executes batches advances one level
// deeper per MaxIterations unit than the streaming BFS engines do, so a
// capped batch demux would not be byte-identical to the query's own
// standalone run.
func (s *GraphService) batchable(q Query) bool {
	if s.cfg.PanicRoot > 0 && int64(q.Root) == s.cfg.PanicRoot {
		// A poisoned chaos root must run solo so its injected panic fails
		// exactly one query, never a shared run's innocent members.
		return false
	}
	return s.batcher != nil && q.Algorithm == AlgoBFS && q.MaxIterations == 0
}

// submitBatched answers one cache-missed query through the batcher. It
// parallels the solo path's admit+execute: join a batch (bounded, so
// overload still fails fast with ErrBusy), then wait for the shared run
// — or for the query's own context, which pulls the query out of the
// batch without stopping the run for the other members.
func (s *GraphService) submitBatched(ctx context.Context, q Query, cacheKey string, useCache bool, tm *queryTiming) (*Result, error) {
	e, bt, err := s.batcher.join(ctx, q, cacheKey, useCache)
	if err != nil {
		return nil, err
	}
	tm.waited = true
	select {
	case <-e.done:
	case <-ctx.Done():
		if bt.leave(e) {
			s.ctr.batchEvicted.Add(1)
			s.ctr.cancelled.Add(1)
			tm.wait = time.Since(e.joined)
			return nil, fmt.Errorf("serve: %s: batched query: %w: %w", s.name, errs.ErrCancelled, context.Cause(ctx))
		}
		// The batch resolved this entry before the eviction took hold:
		// the answer (or the batch's error) is already ours.
		<-e.done
	}
	tm.wait, tm.exec, tm.ran = e.wait, e.exec, e.ran
	if e.err != nil {
		if errors.Is(e.err, errs.ErrCancelled) {
			s.ctr.cancelled.Add(1)
		}
		return nil, e.err
	}
	s.ctr.completed.Add(1)
	if e.useCache {
		s.cache.put(e.cacheKey, e.res)
	}
	return e.res, nil
}

// join adds a query to the forming batch, creating one (and its
// runner goroutine) if none is open. The number of unsealed batches is
// bounded like the solo wait queue; past it, join fails with ErrBusy.
func (ba *batcher) join(ctx context.Context, q Query, cacheKey string, useCache bool) (*batchEntry, *batch, error) {
	s := ba.s
	e := &batchEntry{q: q, cacheKey: cacheKey, useCache: useCache, joined: time.Now(), done: make(chan struct{})}
	ba.mu.Lock()
	defer ba.mu.Unlock()
	bt := ba.forming
	if bt == nil {
		limit := s.cfg.MaxQueue
		if limit < 1 {
			limit = 1
		}
		if ba.open >= limit {
			s.ctr.rejected.Add(1)
			return nil, nil, fmt.Errorf("serve: %s: %d batches pending: %w", s.name, ba.open, errs.ErrBusy)
		}
		bctx, cancel := context.WithCancelCause(context.Background())
		bt = &batch{
			b: ba, ctx: bctx, cancel: cancel,
			hold:    make(chan struct{}),
			full:    make(chan struct{}),
			rootSet: make(map[graph.VertexID]bool),
		}
		bt.timer = time.AfterFunc(s.cfg.BatchWait, bt.fireHold)
		ba.forming = bt
		ba.open++
		// The runner registers with the drain group so Shutdown waits
		// for batches already forming; the creating Submit holds a wg
		// token, so the counter cannot reach zero under this Add.
		s.wg.Add(1)
		go bt.run()
	}
	bt.entries = append(bt.entries, e)
	bt.live++
	bt.rootSet[q.Root] = true
	// Deadline-aware hold: a member that cannot afford the full window
	// shortens it, spending at most a quarter of its remaining time
	// waiting for companions.
	if dl, ok := ctx.Deadline(); ok {
		if budget := time.Until(dl) / 4; budget < s.cfg.BatchWait {
			if budget < 0 {
				budget = 0
			}
			bt.timer.Reset(budget)
		}
	}
	if len(bt.rootSet) >= s.cfg.BatchSize {
		// Full: stop admitting members (a 33rd distinct root would not
		// fit the frontier mask) and wake the runner.
		ba.forming = nil
		bt.fullOnce.Do(func() { close(bt.full) })
	}
	return e, bt, nil
}

func (bt *batch) fireHold() { bt.holdOnce.Do(func() { close(bt.hold) }) }

// leave pulls an entry out of the batch; it reports false when the
// batch resolved the entry first (the result is ready after all). When
// the last member leaves, the batch context is cancelled so an
// in-flight run stops instead of computing for nobody.
func (bt *batch) leave(e *batchEntry) bool {
	bt.b.mu.Lock()
	defer bt.b.mu.Unlock()
	if e.resolved {
		return false
	}
	e.gone = true
	bt.live--
	if bt.live == 0 {
		bt.cancel(errs.ErrBatchAbandoned)
	}
	return true
}

// seal closes the batch to new members and snapshots the survivors and
// their distinct roots (sorted, so the shared run is deterministic in
// the batch's composition, not its arrival order).
func (bt *batch) seal() (live []*batchEntry, roots []graph.VertexID) {
	ba := bt.b
	ba.mu.Lock()
	defer ba.mu.Unlock()
	bt.sealed = true
	if ba.forming == bt {
		ba.forming = nil
	}
	ba.open--
	now := time.Now()
	seen := make(map[graph.VertexID]bool, len(bt.entries))
	for _, e := range bt.entries {
		if e.gone {
			continue
		}
		live = append(live, e)
		e.wait = now.Sub(e.joined)
		if !seen[e.q.Root] {
			seen[e.q.Root] = true
			roots = append(roots, e.q.Root)
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	return live, roots
}

// fail resolves every remaining member with err and retires the batch.
// A nil err is pure cleanup (all members already left).
func (bt *batch) fail(err error) {
	ba := bt.b
	ba.mu.Lock()
	if !bt.sealed {
		bt.sealed = true
		if ba.forming == bt {
			ba.forming = nil
		}
		ba.open--
	}
	now := time.Now()
	for _, e := range bt.entries {
		if e.gone || e.resolved {
			continue
		}
		e.wait = now.Sub(e.joined)
		e.err = err
		e.resolved = true
		close(e.done)
	}
	ba.mu.Unlock()
	bt.cancel(nil)
}

// run is the batch's lifecycle goroutine: hold window, slot wait (still
// joinable — this is where saturation grows batches), then one shared
// engine run demultiplexed back to every surviving member.
func (bt *batch) run() {
	s := bt.b.s
	defer s.wg.Done()
	defer bt.timer.Stop()
	// The runner is a shared goroutine: a panic anywhere past this point
	// (demux, counters) must fail this batch's members, not the process.
	// The engine run itself has its own recover below so a mid-run panic
	// still reaches bt.fail with the right error; this is the backstop.
	defer func() {
		if r := recover(); r != nil {
			s.notePanic(Query{Algorithm: AlgoBFS}, r, debug.Stack())
			bt.fail(fmt.Errorf("serve: %s: batch runner panic: %v: %w", s.name, r, errs.ErrInternal))
		}
	}()

	select {
	case <-bt.hold:
	case <-bt.full:
	case <-bt.ctx.Done():
		bt.fail(nil)
		return
	case <-s.closing:
		bt.fail(fmt.Errorf("serve: %s: %w", s.name, errs.ErrClosed))
		return
	}

	// Slot wait goes through the admitter like every solo query — the
	// same FIFO queue, but exempt from shedding and the queue bound
	// (noShed): members manage their own deadlines by leaving, and the
	// batcher already bounds forming batches. The batch stays joinable
	// while it waits, which is where saturation grows batches.
	if err := s.adm.acquire(bt.ctx, Query{Algorithm: AlgoBFS, Engine: EngineFastBFS}, true); err != nil {
		if errors.Is(err, errs.ErrCancelled) {
			bt.fail(nil) // every member already left
		} else {
			bt.fail(err)
		}
		return
	}
	defer s.adm.release()

	live, roots := bt.seal()
	if len(live) == 0 {
		bt.cancel(nil)
		return
	}
	s.ctr.admitted.Add(int64(len(live)))
	s.ctr.batchQueries.Add(int64(len(live)))
	if len(live) > 1 {
		s.ctr.batchCoalesced.Add(int64(len(live)))
	} else {
		s.ctr.batchSolo.Add(1)
	}
	s.ctr.inflight.Add(int64(len(live)))
	defer s.ctr.inflight.Add(-int64(len(live)))

	sp := s.tr.Span("serve_batch")
	sp.Attr("members", int64(len(live))).Attr("roots", int64(len(roots)))
	execStart := time.Now()
	prog, err := algo.NewBatchBFS(roots, s.meta.Vertices)
	var res *algo.Result
	if err == nil {
		opts := s.runOpts("b", "batch", 0, 0).Base
		func() {
			// Engine-thread panic isolation for the shared run: the engine's
			// deferred cleanup runs during unwinding, then the panic becomes
			// this batch's error instead of killing the runner goroutine.
			defer func() {
				if r := recover(); r != nil {
					s.notePanic(Query{Algorithm: AlgoBFS}, r, debug.Stack())
					res, err = nil, fmt.Errorf("serve: %s: batch run panic: %v: %w", s.name, r, errs.ErrInternal)
				}
			}()
			res, err = algo.RunContext(bt.ctx, s.vol, s.name, prog, opts)
		}()
	}
	exec := time.Since(execStart)
	// One breaker observation per shared run, mirroring the solo path.
	s.brk.record(false, err)
	if err != nil {
		var pe *stream.PanicError
		if errors.As(err, &pe) {
			s.notePanic(Query{Algorithm: AlgoBFS}, pe.Value, pe.Stack)
		}
		sp.Label("outcome", outcomeFor(err)).End()
		if errors.Is(err, errs.ErrIOFailed) || errors.Is(err, errs.ErrCorrupted) {
			s.ctr.ioFailures.Add(1) // once per shared run, like ioRetries below
		}
		bt.fail(err)
		return
	}
	s.pred.observe(Query{Algorithm: AlgoBFS, Engine: EngineFastBFS}, exec)
	// What the run did: the passes the roots shared and the edges those
	// streamed.
	sp.Attr("levels", int64(len(res.Metrics.Iterations))).Attr("examined", res.Metrics.EdgesStreamed()).
		Label("outcome", OutcomeOK).End()

	bytes := res.Metrics.BytesRead + res.Metrics.BytesWritten
	s.ctr.batchRuns.Add(1)
	s.ctr.deviceBytes.Add(bytes)
	s.ctr.batchBytesSaved.Add(bytes * int64(len(roots)-1))
	s.ctr.ioRetries.Add(res.Metrics.IORetries)
	s.ctr.ioFailures.Add(res.Metrics.IOFailures)
	s.tr.Histogram(obs.HistServeBatchSize, nil).Observe(time.Duration(len(roots)) * time.Second)

	// Every member's Result — its own, Submit stamps its trace ID into it,
	// around its root's shared arrays — is built before the lock every join
	// and leave needs: under it the answers are only published.
	results := make([]*Result, len(live))
	for i, e := range live {
		r := prog.RootIndex(e.q.Root)
		results[i] = &Result{
			Levels:  prog.LevelsOf(r),
			Parents: prog.ParentsOf(r),
			Visited: prog.VisitedOf(r),
			Metrics: res.Metrics,
			Batched: true,
		}
	}
	ba := bt.b
	ba.mu.Lock()
	for i, e := range live {
		if e.gone || e.resolved {
			continue
		}
		e.res = results[i]
		e.exec, e.ran = exec, true
		e.resolved = true
		close(e.done)
	}
	ba.mu.Unlock()
	bt.cancel(nil)
}
