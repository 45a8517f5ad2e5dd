package stream

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"fastbfs/internal/errs"
	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
)

func fastRetrier(ctx context.Context) *Retrier {
	r := NewRetrier(ctx, 1)
	r.Base = 10 * time.Microsecond
	r.Max = 100 * time.Microsecond
	return r
}

func TestRetrierClearsTransientFaults(t *testing.T) {
	r := fastRetrier(context.Background())
	calls := 0
	err := r.Do("op", func() error {
		calls++
		if calls < 3 {
			return &storage.FaultError{Op: "read", Name: "f", Transient: true}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	if r.Retries() != 2 || r.Failures() != 0 {
		t.Fatalf("retries=%d failures=%d", r.Retries(), r.Failures())
	}
}

func TestRetrierExhaustionWrapsErrIOFailed(t *testing.T) {
	r := fastRetrier(context.Background())
	r.Attempts = 3
	calls := 0
	base := &storage.FaultError{Op: "write", Name: "f", Transient: true}
	err := r.Do("op", func() error { calls++; return base })
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	if !errors.Is(err, errs.ErrIOFailed) {
		t.Fatalf("exhaustion error %v does not wrap ErrIOFailed", err)
	}
	var fe *storage.FaultError
	if !errors.As(err, &fe) {
		t.Fatal("original fault lost from the chain")
	}
	if r.Failures() != 1 {
		t.Fatalf("failures = %d", r.Failures())
	}
}

func TestRetrierPermanentFaultFailsImmediately(t *testing.T) {
	r := fastRetrier(context.Background())
	calls := 0
	err := r.Do("op", func() error {
		calls++
		return &storage.FaultError{Op: "read", Name: "f", Transient: false}
	})
	if calls != 1 {
		t.Fatalf("permanent fault retried: %d calls", calls)
	}
	if !errors.Is(err, errs.ErrIOFailed) {
		t.Fatalf("got %v", err)
	}
}

func TestRetrierPassesThroughSemanticErrors(t *testing.T) {
	r := fastRetrier(context.Background())
	for _, sentinel := range []error{storage.ErrNotExist, errs.ErrCorrupted} {
		calls := 0
		err := r.Do("op", func() error { calls++; return sentinel })
		if calls != 1 {
			t.Fatalf("%v retried", sentinel)
		}
		if !errors.Is(err, sentinel) || errors.Is(err, errs.ErrIOFailed) {
			t.Fatalf("sentinel %v wrapped into %v", sentinel, err)
		}
	}
	if r.Failures() != 0 {
		t.Fatalf("semantic errors counted as failures: %d", r.Failures())
	}
}

func TestRetrierWrapsGenericErrorsWithoutRetrying(t *testing.T) {
	r := fastRetrier(context.Background())
	boom := errors.New("boom")
	calls := 0
	err := r.Do("op", func() error { calls++; return boom })
	if calls != 1 {
		t.Fatalf("generic error retried: %d calls", calls)
	}
	if !errors.Is(err, errs.ErrIOFailed) || !errors.Is(err, boom) {
		t.Fatalf("want ErrIOFailed wrapping boom, got %v", err)
	}
}

func TestRetrierContextCancelStopsBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	r := NewRetrier(ctx, 1)
	r.Base = time.Hour // would hang without cancellation
	r.Max = time.Hour
	cancel()
	start := time.Now()
	err := r.Do("op", func() error {
		return &storage.FaultError{Op: "read", Name: "f", Transient: true}
	})
	if time.Since(start) > 5*time.Second {
		t.Fatal("backoff ignored the cancelled context")
	}
	// A cancellation mid-backoff is a cancellation, not an I/O failure:
	// the run died around the fault, the fault never beat the budget.
	if !errors.Is(err, errs.ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want ErrCancelled wrapping context.Canceled", err)
	}
	if errors.Is(err, errs.ErrIOFailed) || r.Failures() != 0 {
		t.Fatalf("cancelled backoff recorded an I/O failure: %v (failures=%d)", err, r.Failures())
	}
}

func TestNilRetrierStillClassifies(t *testing.T) {
	var r *Retrier
	boom := errors.New("boom")
	err := r.Do("op", func() error { return boom })
	if !errors.Is(err, errs.ErrIOFailed) || !errors.Is(err, boom) {
		t.Fatalf("nil retrier: %v", err)
	}
	if err := r.Do("op", func() error { return nil }); err != nil {
		t.Fatalf("nil retrier success: %v", err)
	}
	if r.Retries() != 0 || r.Failures() != 0 {
		t.Fatal("nil retrier counters non-zero")
	}
}

// TestStreamsRecoverUnderTransientFaults runs a write-then-read cycle
// through a heavily faulted volume and requires a byte-perfect result
// plus visible retries — the stream-level version of the PR's
// acceptance criterion.
func TestStreamsRecoverUnderTransientFaults(t *testing.T) {
	vol := storage.NewFaulty(storage.NewMem(), storage.FaultSpec{Seed: 11, ReadP: 0.2, WriteP: 0.2})
	rt := fastRetrier(context.Background())
	// p=0.2 over a few hundred operations makes a 4-long fault streak
	// likely; give the budget enough depth that exhaustion probability
	// is negligible (0.2^10 per op).
	rt.Attempts = 10
	tm := Timing{Retry: rt}

	w, err := NewUpdateWriter(vol, "u", tm, 256)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000
	for i := 0; i < n; i++ {
		if err := w.Append(graph.Update{Dst: graph.VertexID(i), Parent: graph.VertexID(n - i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	sc, err := NewUpdateScanner(vol, "u", tm, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	for i := 0; i < n; i++ {
		u, ok, err := sc.Next()
		if err != nil || !ok {
			t.Fatalf("record %d: ok=%v err=%v", i, ok, err)
		}
		if u.Dst != graph.VertexID(i) || u.Parent != graph.VertexID(n-i) {
			t.Fatalf("record %d = %v", i, u)
		}
	}
	if _, ok, _ := sc.Next(); ok {
		t.Fatal("extra records after faulted round trip")
	}
	if rt.Retries() == 0 {
		t.Fatal("no retries recorded under p=0.2 fault injection")
	}
	if rt.Failures() != 0 {
		t.Fatalf("%d failures leaked through retries", rt.Failures())
	}
}

// TestReadAllAllocatesTheFile: like storage.ReadAll, the retrying ReadAll
// reads a 100-byte file into one slice of its size, under a KiB a read.
func TestReadAllAllocatesTheFile(t *testing.T) {
	vol := storage.NewMem()
	want := bytes.Repeat([]byte{7}, 100)
	if err := storage.WriteAll(vol, "small.conf", want); err != nil {
		t.Fatal(err)
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		got, err := ReadAll(vol, "small.conf", fastRetrier(context.Background()))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read %q, %v", got, err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got >= 1<<10 {
		t.Errorf("a read of a 100-byte file allocates %d B, want under 1 KiB", got)
	}
}
