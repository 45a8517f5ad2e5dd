package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"fastbfs/internal/errs"
)

// This file is the service's overload-aware admission layer (DESIGN.md
// §15): MaxInFlight execution slots and one bounded FIFO wait queue,
// with two ways out of the queue besides a grant:
//
//   - CoDel-style queue aging: when the granted-head wait has stayed
//     above ShedTarget for ShedInterval, one aged waiter is shed per
//     grant (429 + Retry-After) instead of occupying a slot it can no
//     longer use productively;
//   - deadline re-checks at grant time: a waiter whose remaining
//     deadline is smaller than the EWMA-predicted execution time is
//     shed before it burns a slot streaming a graph it cannot finish.
//
// Submit-time deadline prediction (queue wait + exec EWMA) lives in
// GraphService.hopeless; this file owns the queue itself.

// Priority was a query's admission class.
//
// Deprecated: admission has one FIFO queue; the value is ignored.
type Priority int

// String names the one admission class.
//
// Deprecated: every query is admitted in arrival order.
func (Priority) String() string { return "interactive" }

// retryAfterError decorates an admission or breaker rejection with a
// client retry hint; the HTTP layer surfaces it as a Retry-After
// header on every 429/503.
type retryAfterError struct {
	after time.Duration
	err   error
}

func (e *retryAfterError) Error() string { return e.err.Error() }
func (e *retryAfterError) Unwrap() error { return e.err }

// withRetryAfter wraps err with a retry hint; a non-positive hint
// passes err through untouched.
func withRetryAfter(after time.Duration, err error) error {
	if after <= 0 {
		return err
	}
	return &retryAfterError{after: after, err: err}
}

// RetryAfterHint extracts the retry hint a rejection carries, if any.
func RetryAfterHint(err error) (time.Duration, bool) {
	var ra *retryAfterError
	if errors.As(err, &ra) {
		return ra.after, true
	}
	return 0, false
}

// ewma is a lock-free exponentially weighted moving average of seconds.
type ewma struct {
	bits atomic.Uint64 // float64 bits; 0 = no data
}

// ewmaAlpha weighs new observations: high enough to track load shifts
// within a handful of queries, low enough that one outlier does not
// swing admission decisions.
const ewmaAlpha = 0.3

func (e *ewma) observe(d time.Duration) {
	x := d.Seconds()
	for {
		old := e.bits.Load()
		cur := math.Float64frombits(old)
		next := x
		if old != 0 {
			next = cur*(1-ewmaAlpha) + x*ewmaAlpha
		}
		if e.bits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// seconds returns the current average, 0 when nothing was observed.
func (e *ewma) seconds() float64 {
	return math.Float64frombits(e.bits.Load())
}

// predictor tracks recent execution times per (algo, engine) — the
// service serves exactly one graph, so the pair is per-graph — plus a
// global slot-occupancy average used to predict queue wait. No
// observation means no prediction: the service never sheds on zero
// data.
type predictor struct {
	mu    sync.Mutex
	byKey map[string]*ewma
	slot  ewma // all slot occupancies, any algo/engine
}

func newPredictor() *predictor {
	return &predictor{byKey: make(map[string]*ewma)}
}

func (p *predictor) forKey(q Query) *ewma {
	key := string(q.Algorithm) + "|" + q.Engine.String()
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.byKey[key]
	if e == nil {
		e = &ewma{}
		p.byKey[key] = e
	}
	return e
}

// observe records one completed execution.
func (p *predictor) observe(q Query, d time.Duration) {
	p.forKey(q).observe(d)
	p.slot.observe(d)
}

// execSeconds predicts the query's own execution time (0 = no data).
func (p *predictor) execSeconds(q Query) float64 {
	return p.forKey(q).seconds()
}

// slotSeconds predicts how long one execution slot stays occupied.
func (p *predictor) slotSeconds() float64 { return p.slot.seconds() }

// waiter is one query parked in the admission queue.
type waiter struct {
	enqueued time.Time
	deadline time.Time // zero = none
	execPred float64   // EWMA-predicted exec seconds at enqueue time
	noShed   bool      // batch runners manage their own members' deadlines
	ready    chan error
}

// admitter is the slot manager: MaxInFlight execution slots, a bounded
// FIFO wait queue, CoDel-style aging and grant-time deadline re-checks.
// All its counters live on the owning service.
type admitter struct {
	s *GraphService

	mu     sync.Mutex
	slots  int
	inUse  int
	queue  []*waiter // arrival order
	closed bool

	// CoDel state: when the granted-head wait first stayed above
	// ShedTarget (zero = currently below target).
	aboveSince time.Time
}

func newAdmitter(s *GraphService) *admitter {
	return &admitter{s: s, slots: s.cfg.MaxInFlight}
}

// queueState reports the queue depth and whether it is full.
func (a *admitter) queueState() (queued int, full bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.queue), len(a.queue) >= a.s.cfg.MaxQueue
}

// estimatedWait predicts the queue wait a newly arriving query faces:
// the queued depth (plus itself) spread over the slots, each held for
// the EWMA slot-occupancy time. Zero when a slot is free or nothing
// has been observed yet.
func (a *admitter) estimatedWait() time.Duration {
	slotSec := a.s.pred.slotSeconds()
	if slotSec <= 0 {
		return 0
	}
	a.mu.Lock()
	queued := len(a.queue)
	free := a.slots - a.inUse
	a.mu.Unlock()
	if free > 0 && queued == 0 {
		return 0
	}
	waves := float64(queued+1) / float64(a.slots)
	return time.Duration(waves * slotSec * float64(time.Second))
}

// acquire obtains an execution slot, waiting in the bounded queue when
// every slot is busy. It fails with errs.ErrBusy (plus a Retry-After
// hint) when the queue is full, errs.ErrCancelled when ctx dies while
// waiting, errs.ErrClosed when the service shuts down under the waiter,
// and errs.ErrDeadlineHopeless when overload control sheds the waiter
// from the queue. A granted slot is returned with release.
func (a *admitter) acquire(ctx context.Context, q Query, noShed bool) error {
	s := a.s
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return fmt.Errorf("serve: %s: %w", s.name, errs.ErrClosed)
	}
	if a.inUse < a.slots && len(a.queue) == 0 {
		a.inUse++
		a.mu.Unlock()
		return nil
	}
	// Batch runners (noShed) bypass the queue bound: the batcher already
	// bounds forming batches like the wait queue, and a runner that got
	// ErrBusy here would fail every member it carries.
	if queued := len(a.queue); !noShed && queued >= s.cfg.MaxQueue {
		a.mu.Unlock()
		s.ctr.rejected.Add(1)
		hint := a.estimatedWait()
		return withRetryAfter(hint, fmt.Errorf("serve: %s: %d in flight, %d queued: %w",
			s.name, s.cfg.MaxInFlight, queued, errs.ErrBusy))
	}
	w := &waiter{
		enqueued: time.Now(),
		execPred: s.pred.execSeconds(q),
		noShed:   noShed,
		ready:    make(chan error, 1),
	}
	if dl, ok := ctx.Deadline(); ok {
		w.deadline = dl
	}
	a.queue = append(a.queue, w)
	s.ctr.queueDepth.Set(int64(len(a.queue)))
	a.mu.Unlock()

	select {
	case err := <-w.ready:
		return err
	case <-ctx.Done():
	}
	// ctx died while parked. Resolve the race with a concurrent grant or
	// shed under the lock: if the waiter is still queued we own its exit;
	// otherwise take the resolution that already happened.
	a.mu.Lock()
	removed := a.removeLocked(w)
	if removed {
		s.ctr.queueDepth.Set(int64(len(a.queue)))
	}
	a.mu.Unlock()
	if removed {
		s.ctr.cancelled.Add(1)
		return fmt.Errorf("serve: %s: queued query: %w: %w", s.name, errs.ErrCancelled, context.Cause(ctx))
	}
	err := <-w.ready
	if err == nil {
		// Granted concurrently with the cancellation: hand the slot to
		// the next waiter and report the cancellation truthfully.
		a.release()
		s.ctr.cancelled.Add(1)
		return fmt.Errorf("serve: %s: queued query: %w: %w", s.name, errs.ErrCancelled, context.Cause(ctx))
	}
	return err
}

// removeLocked deletes w from the queue; false means w was already
// granted or shed.
func (a *admitter) removeLocked(w *waiter) bool {
	for i, cand := range a.queue {
		if cand == w {
			a.queue = append(a.queue[:i], a.queue[i+1:]...)
			return true
		}
	}
	return false
}

// release returns an execution slot, granting it to the longest
// waiter. This is where queue aging runs: grants are the only moments
// queue time becomes observable, so CoDel-style shedding happens here,
// at most one shed per grant.
func (a *admitter) release() {
	s := a.s
	now := time.Now()
	var grant, shed *waiter
	a.mu.Lock()
	for len(a.queue) > 0 {
		w := a.queue[0]
		a.queue = a.queue[1:]
		if s.cfg.Shed && !w.noShed && shed == nil && a.shouldShedLocked(w, now) {
			// One shed per grant (the CoDel interval restarts below), then
			// the next waiter is granted regardless: gradual pressure
			// relief, not queue collapse.
			shed = w
			a.aboveSince = now
			continue
		}
		grant = w
		break
	}
	if grant == nil {
		a.inUse--
	} else {
		// The slot transfers to the waiter: inUse is unchanged.
		if now.Sub(grant.enqueued) > s.cfg.ShedTarget {
			if a.aboveSince.IsZero() {
				a.aboveSince = now
			}
		} else {
			a.aboveSince = time.Time{}
		}
	}
	s.ctr.queueDepth.Set(int64(len(a.queue)))
	a.mu.Unlock()

	if shed != nil {
		s.ctr.shed.Add(1)
		s.ctr.shedQueue.Add(1)
		shed.ready <- withRetryAfter(a.estimatedWait(), fmt.Errorf("serve: %s: shed after %v queued: %w",
			s.name, now.Sub(shed.enqueued).Round(time.Microsecond), errs.ErrDeadlineHopeless))
	}
	if grant != nil {
		grant.ready <- nil
	}
}

// shouldShedLocked is the CoDel condition for one waiter at grant
// time: its queue age exceeds ShedTarget and the head wait has stayed
// above target for at least ShedInterval — or its own deadline can no
// longer cover its predicted execution, making the grant pure waste.
func (a *admitter) shouldShedLocked(w *waiter, now time.Time) bool {
	cfg := &a.s.cfg
	age := now.Sub(w.enqueued)
	if age > cfg.ShedTarget && !a.aboveSince.IsZero() && now.Sub(a.aboveSince) >= cfg.ShedInterval {
		return true
	}
	return !w.deadline.IsZero() && w.execPred > 0 && w.deadline.Sub(now).Seconds() < w.execPred
}

// close wakes every queued waiter with errs.ErrClosed, synchronously,
// before returning — Shutdown calls it first, so even a Shutdown with
// an already-expired context leaves no waiter parked.
func (a *admitter) close() {
	s := a.s
	a.mu.Lock()
	a.closed = true
	all := a.queue
	a.queue = nil
	s.ctr.queueDepth.Set(0)
	a.mu.Unlock()
	for _, w := range all {
		w.ready <- fmt.Errorf("serve: %s: %w", s.name, errs.ErrClosed)
	}
}
