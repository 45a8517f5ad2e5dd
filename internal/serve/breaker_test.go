package serve

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"fastbfs/internal/errs"
)

// TestBreakerBackoffCap: an unset cap is max(8s, BreakerBackoff) and an
// explicit cap below the initial backoff is raised to it, so a failed
// probe never shortens the open interval.
func TestBreakerBackoffCap(t *testing.T) {
	for _, c := range []struct{ backoff, cap, want time.Duration }{
		{0, 0, 8 * time.Second},
		{10 * time.Second, 0, 10 * time.Second},
		{10 * time.Second, 5 * time.Second, 10 * time.Second},
		{time.Second, 3 * time.Second, 3 * time.Second},
	} {
		cfg := Config{BreakerBackoff: c.backoff, BreakerMaxBackoff: c.cap}
		cfg.setDefaults()
		if cfg.BreakerMaxBackoff != c.want {
			t.Errorf("backoff %v, cap %v: effective cap %v, want %v", c.backoff, c.cap, cfg.BreakerMaxBackoff, c.want)
		}
	}
}

// TestBreakerFailedProbeNeverShortensLongBackoff: from a 10 s backoff,
// a failed half-open probe keeps the breaker open for the doubled 20 s
// under a one-minute cap, and for 10 s (never the old 8 s) under the
// unset one.
func TestBreakerFailedProbeNeverShortensLongBackoff(t *testing.T) {
	for _, c := range []struct{ cap, want time.Duration }{
		{time.Minute, 20 * time.Second},
		{0, 10 * time.Second},
	} {
		s := &GraphService{name: "g", cfg: Config{BreakerThreshold: 1, BreakerBackoff: 10 * time.Second, BreakerMaxBackoff: c.cap}}
		s.cfg.setDefaults()
		b := newBreaker(s)
		ioErr := fmt.Errorf("media gone: %w", errs.ErrIOFailed)

		b.record(false, ioErr) // trips open for 10 s
		b.mu.Lock()
		b.until = time.Now() // the backoff has elapsed
		b.mu.Unlock()
		if probe, err := b.allow(); !probe || err != nil {
			t.Fatalf("cap %v: allow after the backoff = %v, %v; want the half-open probe", c.cap, probe, err)
		}
		failedAt := time.Now()
		b.record(true, ioErr)

		if _, err := b.allow(); !errors.Is(err, errs.ErrUnavailable) {
			t.Fatalf("cap %v: allow after the failed probe: err = %v, want ErrUnavailable", c.cap, err)
		}
		if b.backoff != c.want {
			t.Errorf("cap %v: backoff after the failed probe = %v, want %v", c.cap, b.backoff, c.want)
		}
		if open := b.until.Sub(failedAt); open < c.want {
			t.Errorf("cap %v: breaker reopens after %v, want %v", c.cap, open, c.want)
		}
	}
}
