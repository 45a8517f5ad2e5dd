package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"fastbfs/internal/errs"
	"fastbfs/internal/storage"
)

// Retrier gives the stream layer bounded tolerance of transient I/O
// errors: any storage operation that fails with a transient fault (see
// storage.IsTransient) is retried with exponential backoff and seeded
// jitter, up to Attempts total tries. Everything else — permanent
// faults, corruption, programming errors — fails on the first try.
//
// Backoff sleeps are wall-clock only and never touch the disksim
// clock, so a simulated run's virtual ExecTime is identical with and
// without transient faults; only real elapsed time (and the retry
// counters) reveal them. That is what keeps the chaos CI cell's
// determinism assertions meaningful.
//
// When the budget is exhausted, or the fault is permanent, the last
// error is wrapped in errs.ErrIOFailed; the original cause stays on
// the chain for errors.Is. Semantic errors (io.EOF, ErrNotExist,
// ErrCorrupted, context cancellation) pass through unwrapped — they
// are verdicts, not I/O failures.
//
// A nil *Retrier is valid and means "no retries, no wrapping beyond
// classification": Do just runs the operation once and classifies the
// error, so fault handling is uniform whether or not retries are
// configured. All methods are safe for concurrent use.
type Retrier struct {
	// Ctx aborts backoff sleeps when the owning query dies. Nil means
	// context.Background.
	Ctx context.Context
	// Attempts is the total number of tries (first call included).
	// Values < 1 mean DefaultRetryAttempts.
	Attempts int
	// Base and Max bound the backoff: sleep i is min(Base<<i, Max)
	// scaled by a jitter factor in [0.5, 1.5). Zero values mean the
	// defaults.
	Base, Max time.Duration

	rng      atomic.Uint64 // seeded by SeedJitter; splitmix64 stream
	retries  atomic.Int64
	failures atomic.Int64
}

// Defaults for the retry budget. Three retries with 1ms/2ms/4ms base
// sleeps keep the worst-case added latency per operation near 10ms —
// enough to clear the injected-fault model and real transient blips,
// small enough that chaos test suites stay fast.
const (
	DefaultRetryAttempts = 4
	DefaultRetryBase     = time.Millisecond
	DefaultRetryMax      = 50 * time.Millisecond
)

// NewRetrier returns a Retrier with the default budget and the given
// jitter seed.
func NewRetrier(ctx context.Context, seed uint64) *Retrier {
	r := &Retrier{Ctx: ctx}
	r.SeedJitter(seed)
	return r
}

// SeedJitter seeds the jitter sequence, making backoff delays
// reproducible for a given seed and operation order.
func (r *Retrier) SeedJitter(seed uint64) {
	r.rng.Store(seed*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03)
}

// Retries reports how many individual retries were performed.
func (r *Retrier) Retries() int64 {
	if r == nil {
		return 0
	}
	return r.retries.Load()
}

// Failures reports how many operations failed permanently (budget
// exhausted or non-retryable I/O error).
func (r *Retrier) Failures() int64 {
	if r == nil {
		return 0
	}
	return r.failures.Load()
}

func (r *Retrier) jitter() float64 {
	z := r.rng.Add(0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return 0.5 + float64(z>>11)/float64(1<<53) // [0.5, 1.5)
}

func (r *Retrier) backoff(try int) time.Duration {
	base, max := r.Base, r.Max
	if base <= 0 {
		base = DefaultRetryBase
	}
	if max <= 0 {
		max = DefaultRetryMax
	}
	d := base << uint(try)
	if d > max || d <= 0 {
		d = max
	}
	return time.Duration(float64(d) * r.jitter())
}

// sleep waits out one backoff period; false means the context died.
func (r *Retrier) sleep(d time.Duration) bool {
	ctx := r.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// passThrough reports errors that must never be wrapped in
// ErrIOFailed: stream verdicts and semantic conditions the callers
// dispatch on.
func passThrough(err error) bool {
	return errors.Is(err, io.EOF) ||
		errors.Is(err, storage.ErrNotExist) ||
		errors.Is(err, storage.ErrExist) ||
		errors.Is(err, errs.ErrCorrupted) ||
		errors.Is(err, errs.ErrIOFailed) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// classify wraps a final error in ErrIOFailed unless it passes
// through, counting the failure. Nil-safe.
func (r *Retrier) classify(desc string, err error) error {
	if err == nil || passThrough(err) {
		return err
	}
	if r != nil {
		r.failures.Add(1)
	}
	return fmt.Errorf("stream: %s: %w: %w", desc, errs.ErrIOFailed, err)
}

// Do runs f, retrying transient failures within the budget. The
// returned error is classified (see classify). desc names the
// operation for error text, e.g. "read p3_upd0".
func (r *Retrier) Do(desc string, f func() error) error {
	if r == nil {
		return r.classify(desc, f())
	}
	attempts := r.Attempts
	if attempts < 1 {
		attempts = DefaultRetryAttempts
	}
	var err error
	for try := 0; ; try++ {
		err = f()
		if err == nil {
			return nil
		}
		if !storage.IsTransient(err) || try >= attempts-1 {
			break
		}
		r.retries.Add(1)
		if !r.sleep(r.backoff(try)) {
			// The owning run died while we were backing off. That is a
			// cancellation, not an I/O failure: the transient fault never
			// outlived its retry budget, the run just ended around it.
			return fmt.Errorf("stream: %s interrupted by cancellation: %w: %w",
				desc, errs.ErrCancelled, context.Cause(r.Ctx))
		}
	}
	return r.classify(desc, err)
}

// retryReader wraps a storage.Reader with the retry policy. Injected
// transient faults fire before any bytes move (see storage.Faulty), so
// re-issuing the same Read resumes exactly where the failed call left
// the stream.
type retryReader struct {
	inner storage.Reader
	rt    *Retrier
	name  string
}

func (rr *retryReader) Read(p []byte) (int, error) {
	var n int
	var tail error
	err := rr.rt.Do("read "+rr.name, func() error {
		var e error
		n, e = rr.inner.Read(p)
		if n > 0 {
			// Bytes moved: never retry past them. A same-call error
			// (short read + error) is surfaced unwrapped below.
			tail = e
			return nil
		}
		return e
	})
	if err != nil {
		return 0, err
	}
	return n, tail
}

// ReadAt retries like Read; a short read is the file's end, not a fault.
func (rr *retryReader) ReadAt(p []byte, off int64) (n int, err error) {
	ra, ok := rr.inner.(io.ReaderAt)
	if !ok {
		return 0, fmt.Errorf("stream: %s: %T reads no ranges", rr.name, rr.inner)
	}
	err = rr.rt.Do("read "+rr.name, func() (e error) { n, e = ra.ReadAt(p, off); return e })
	return n, err
}

func (rr *retryReader) Close() error { return rr.inner.Close() }
func (rr *retryReader) Size() int64  { return rr.inner.Size() }

// retryWriter wraps a storage.Writer with the retry policy. Injected
// transient write faults fire before the data is absorbed, so a
// retried Write is idempotent.
type retryWriter struct {
	inner storage.Writer
	rt    *Retrier
	name  string
}

func (rw *retryWriter) Write(p []byte) (int, error) {
	err := rw.rt.Do("write "+rw.name, func() error {
		_, e := rw.inner.Write(p)
		return e
	})
	if err != nil {
		return 0, err
	}
	return len(p), nil
}

// Close publishes the file. It is not retried — a failed publish may
// have consumed the buffered image — but its error is classified so
// callers see ErrIOFailed.
func (rw *retryWriter) Close() error {
	return rw.rt.classify("close "+rw.name, rw.inner.Close())
}

func (rw *retryWriter) Abort() error { return rw.inner.Abort() }

// ReadAll reads the entire named file, applying the retry policy to
// the open and to every read — the whole-file analogue of
// storage.ReadAll for engine paths that slurp small files (shards,
// vertex state) instead of streaming them. rt may be nil.
func ReadAll(vol storage.Volume, name string, rt *Retrier) ([]byte, error) {
	r, err := openRetrying(vol, name, rt)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	b, err := storage.ReadRest(r)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// WriteAll writes data as the named file, retrying transient write
// faults; the final publish (Close) is classified but not retried,
// like every stream writer. rt may be nil.
func WriteAll(vol storage.Volume, name string, data []byte, rt *Retrier) error {
	w, err := createRetrying(vol, name, rt)
	if err != nil {
		return rt.classify("create "+name, err)
	}
	if _, err := w.Write(data); err != nil {
		w.Abort()
		return err
	}
	return w.Close()
}

// openRetrying opens name with transient-fault retries and wraps the
// reader so subsequent reads retry too. rt may be nil.
func openRetrying(vol storage.Volume, name string, rt *Retrier) (storage.Reader, error) {
	var r storage.Reader
	if err := rt.Do("open "+name, func() error {
		var e error
		r, e = vol.Open(name)
		return e
	}); err != nil {
		return nil, err
	}
	if rt == nil {
		return r, nil
	}
	return &retryReader{inner: r, rt: rt, name: name}, nil
}

// createRetrying creates name and wraps the writer with the retry
// policy. rt may be nil.
func createRetrying(vol storage.Volume, name string, rt *Retrier) (storage.Writer, error) {
	w, err := vol.Create(name)
	if err != nil {
		return nil, err
	}
	if rt == nil {
		return w, nil
	}
	return &retryWriter{inner: w, rt: rt, name: name}, nil
}
