// Package errs defines the sentinel errors shared by the engines, the
// serving layer and the public fastbfs API. They live in their own
// internal package so that internal/core, internal/xstream,
// internal/graphchi, internal/algo and internal/serve can all produce
// them without importing the public facade (which imports them back and
// re-exports them as fastbfs.ErrGraphNotFound et al.).
//
// Callers match with errors.Is; every error returned by an engine or the
// service wraps the appropriate sentinel plus the underlying cause, so
// both errors.Is(err, errs.ErrCancelled) and errors.Is(err,
// context.DeadlineExceeded) work on a deadline-expired query.
package errs

import "errors"

// ExitCode is the process exit status the commands report err with: 2
// for a malformed request (bad flags, unknown engine, root out of range),
// 3 for a missing graph, 4 for an I/O failure past the retry budget or
// detected data corruption, 1 otherwise.
func ExitCode(err error) int {
	switch {
	case errors.Is(err, ErrBadOptions):
		return 2
	case errors.Is(err, ErrGraphNotFound):
		return 3
	case errors.Is(err, ErrIOFailed), errors.Is(err, ErrCorrupted):
		return 4
	}
	return 1
}

var (
	// ErrGraphNotFound reports that the named graph (its config or edge
	// file) does not exist on the volume.
	ErrGraphNotFound = errors.New("graph not found")

	// ErrCancelled reports that a query's context was cancelled or its
	// deadline expired; the wrapped cause distinguishes the two.
	ErrCancelled = errors.New("query cancelled")

	// ErrBusy reports that the service's admission control rejected a
	// query because the in-flight limit and wait queue are both full.
	ErrBusy = errors.New("service saturated")

	// ErrBadOptions reports an invalid query or option set (root outside
	// the vertex space, weighted graph passed to a BFS engine, unknown
	// algorithm or engine, ...).
	ErrBadOptions = errors.New("bad options")

	// ErrClosed reports that the service is draining or closed and no
	// longer admits queries.
	ErrClosed = errors.New("service closed")

	// ErrCorrupted reports that a file failed its integrity check: a
	// framed update/stay file with a bad checksum, a truncated frame
	// stream, or an unreadable checkpoint manifest. Where semantics
	// allow (a corrupted stay file is a subset of an input that still
	// exists) the engines recover instead of returning it.
	ErrCorrupted = errors.New("data corrupted")

	// ErrIOFailed reports an I/O error that survived the stream layer's
	// bounded retries (or was permanent to begin with) and could not be
	// degraded around. The wrapped cause is the last underlying error.
	ErrIOFailed = errors.New("i/o failed after retries")

	// ErrBatchAbandoned is the cancellation cause the serving layer's
	// batcher attaches when every member of a coalesced batch left
	// (cancelled or timed out) before the shared run finished, so the
	// run itself was stopped. Individual queries never see it directly:
	// each reports its own ErrCancelled with its own context's cause.
	ErrBatchAbandoned = errors.New("batch abandoned")

	// ErrDeadlineHopeless reports that deadline-aware admission refused a
	// query at Submit because its context deadline cannot survive the
	// predicted queue wait plus execution time (or it aged out of the
	// wait queue CoDel-style). Unlike ErrCancelled the query never ran
	// and never burned an execution slot; the client should retry after
	// the Retry-After hint, with a looser deadline, or with allow_stale.
	ErrDeadlineHopeless = errors.New("deadline hopeless")

	// ErrInternal reports that a query died on a server-side defect — a
	// panic in an engine or serving goroutine, recovered and isolated to
	// that one query. The daemon stays up; the stack is in the log.
	ErrInternal = errors.New("internal error")

	// ErrUnavailable reports that the graph's circuit breaker is open:
	// recent queries failed consecutively on ErrIOFailed/ErrCorrupted,
	// so the service fails fast instead of grinding a sick volume. The
	// breaker half-opens after a backoff and probes with one real query.
	ErrUnavailable = errors.New("graph unavailable")
)
