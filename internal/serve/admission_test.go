package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"fastbfs/internal/errs"
	"fastbfs/internal/obs"
)

// newTestAdmitter returns the admission queue of a service that has no
// graph: enough for acquire and release, whose counters are no-ops
// without a tracer.
func newTestAdmitter(slots, queue int) *admitter {
	s := &GraphService{name: "g", cfg: Config{MaxInFlight: slots, MaxQueue: queue}, pred: newPredictor()}
	s.cfg.setDefaults()
	s.adm = newAdmitter(s)
	return s.adm
}

func (a *admitter) queued() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.queue)
}

// parkWaiters queues one acquire per context, in order, each reporting
// its index on granted once it holds a slot and its error on failed.
func parkWaiters(t *testing.T, a *admitter, ctxs []context.Context) (granted chan int, failed chan error) {
	t.Helper()
	granted, failed = make(chan int, len(ctxs)), make(chan error, len(ctxs))
	for i, ctx := range ctxs {
		go func() {
			if err := a.acquire(ctx, Query{}, false); err != nil {
				failed <- err
				return
			}
			granted <- i
		}()
		deadline := time.Now().Add(10 * time.Second)
		for a.queued() != i+1 {
			if time.Now().After(deadline) {
				t.Fatalf("waiter %d never queued", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return granted, failed
}

// expectGrants releases the held slot once per expected waiter and
// checks that each release hands it to the next one in want.
func expectGrants(t *testing.T, a *admitter, granted chan int, want []int) {
	t.Helper()
	for _, w := range want {
		a.release()
		select {
		case got := <-granted:
			if got != w {
				t.Fatalf("slot went to waiter %d, want %d (grant order %v)", got, w, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("no waiter granted; want %d", w)
		}
	}
	a.release()
	if n := a.queued(); n != 0 {
		t.Fatalf("%d waiters left queued", n)
	}
}

// TestAdmissionGrantsInArrivalOrder: under saturation every freed slot
// goes to the longest waiter.
func TestAdmissionGrantsInArrivalOrder(t *testing.T) {
	a := newTestAdmitter(1, 8)
	if err := a.acquire(context.Background(), Query{}, false); err != nil {
		t.Fatal(err)
	}
	ctxs := make([]context.Context, 5)
	for i := range ctxs {
		ctxs[i] = context.Background()
	}
	granted, _ := parkWaiters(t, a, ctxs)
	expectGrants(t, a, granted, []int{0, 1, 2, 3, 4})
}

// TestAdmissionCancelMidQueueKeepsOrder: a waiter cancelled in the
// middle of the queue leaves with ErrCancelled, and the others are
// still granted in arrival order.
func TestAdmissionCancelMidQueueKeepsOrder(t *testing.T) {
	a := newTestAdmitter(1, 8)
	if err := a.acquire(context.Background(), Query{}, false); err != nil {
		t.Fatal(err)
	}
	ctxs := make([]context.Context, 5)
	for i := range ctxs {
		ctxs[i] = context.Background()
	}
	mid, cancel := context.WithCancel(context.Background())
	ctxs[2] = mid
	granted, failed := parkWaiters(t, a, ctxs)
	cancel()
	if err := <-failed; !errors.Is(err, errs.ErrCancelled) {
		t.Fatalf("cancelled waiter: err = %v, want ErrCancelled", err)
	}
	if n := a.queued(); n != 4 {
		t.Fatalf("%d waiters queued after the cancellation, want 4", n)
	}
	expectGrants(t, a, granted, []int{0, 1, 3, 4})
}

// TestAdmissionShedsHopelessWaiterAtGrant: with shedding on, a waiter
// whose remaining deadline no longer covers its predicted execution is
// shed with ErrDeadlineHopeless and a retry hint when a slot frees up,
// and the same grant hands the slot to the next waiter, which has no
// deadline to miss.
func TestAdmissionShedsHopelessWaiterAtGrant(t *testing.T) {
	a := newTestAdmitter(1, 8)
	s := a.s
	s.cfg.Shed = true
	tr := obs.New()
	s.ctr.shed, s.ctr.shedQueue = tr.Counter(obs.CtrServeShed), tr.Counter(obs.CtrServeShedQueue)
	s.pred.observe(Query{}, time.Hour) // every query is predicted to run an hour
	if err := a.acquire(context.Background(), Query{}, false); err != nil {
		t.Fatal(err)
	}
	doomed, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	granted, failed := parkWaiters(t, a, []context.Context{doomed, context.Background()})

	a.release()
	err := <-failed
	if !errors.Is(err, errs.ErrDeadlineHopeless) {
		t.Fatalf("waiter with a minute left of an hour's work: err = %v, want ErrDeadlineHopeless", err)
	}
	if hint, ok := RetryAfterHint(err); !ok || hint <= 0 {
		t.Fatalf("grant-time shed carries no usable Retry-After hint: %v %v", hint, ok)
	}
	if got := <-granted; got != 1 {
		t.Fatalf("slot went to waiter %d, want the deadline-free waiter 1", got)
	}
	if s.ctr.shedQueue.Value() != 1 || s.ctr.shed.Value() != 1 {
		t.Fatalf("counters: shed_queue=%d shed=%d, want 1/1", s.ctr.shedQueue.Value(), s.ctr.shed.Value())
	}
	a.release()
}
