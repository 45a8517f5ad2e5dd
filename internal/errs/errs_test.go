package errs_test

import (
	"errors"
	"fmt"
	"testing"

	"fastbfs/internal/errs"
)

// TestSentinelsAreDistinct pins the contract every layer relies on:
// each sentinel matches itself through wrapping and never matches a
// sibling, so exit codes and HTTP statuses derived with errors.Is can
// not alias.
func TestSentinelsAreDistinct(t *testing.T) {
	all := []error{
		errs.ErrGraphNotFound,
		errs.ErrCancelled,
		errs.ErrBusy,
		errs.ErrBadOptions,
		errs.ErrClosed,
		errs.ErrCorrupted,
		errs.ErrIOFailed,
	}
	for i, s := range all {
		wrapped := fmt.Errorf("layer a: %w", fmt.Errorf("layer b: %w", s))
		if !errors.Is(wrapped, s) {
			t.Errorf("sentinel %d lost through wrapping: %v", i, wrapped)
		}
		for j, other := range all {
			if i != j && errors.Is(wrapped, other) {
				t.Errorf("sentinel %d aliases sentinel %d", i, j)
			}
		}
	}
}

// TestChainCarriesBothSentinelAndCause mirrors how the stream layer
// wraps: an exhausted retry carries ErrIOFailed plus the device error.
func TestChainCarriesBothSentinelAndCause(t *testing.T) {
	cause := errors.New("device vanished")
	err := fmt.Errorf("stream: reading upd_3: %w: %w", errs.ErrIOFailed, cause)
	if !errors.Is(err, errs.ErrIOFailed) || !errors.Is(err, cause) {
		t.Fatalf("chain %v should match both the sentinel and the cause", err)
	}
	if errors.Is(err, errs.ErrCorrupted) {
		t.Fatalf("chain %v must not match ErrCorrupted", err)
	}
}

// TestExitCode pins the status the three commands exit with, through
// wrapping, and that an error carrying no sentinel is a plain failure.
func TestExitCode(t *testing.T) {
	for _, c := range []struct {
		err  error
		want int
	}{
		{errs.ErrBadOptions, 2},
		{errs.ErrGraphNotFound, 3},
		{errs.ErrIOFailed, 4},
		{errs.ErrCorrupted, 4},
		{errs.ErrCancelled, 1},
		{errors.New("anything else"), 1},
	} {
		if got := errs.ExitCode(fmt.Errorf("cmd: %w", c.err)); got != c.want {
			t.Errorf("ExitCode(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}
