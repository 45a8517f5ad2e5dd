package disksim

import (
	"testing"
	"testing/quick"
)

// A read-ahead reserves device time only: its bytes count once the reader
// books what it consumed.
func TestReadAsyncDoesNotStallClock(t *testing.T) {
	d := &Device{Name: "d", SeekLatency: 0, Bandwidth: 100}
	c := NewClock(DefaultCPU(), 1)
	op := c.ReadAsync(d, 100, 0)
	if c.Now() != 0 {
		t.Fatalf("ReadAsync advanced the clock to %v", c.Now())
	}
	if got := c.BgCompletion(op); !approx(got, 1.0) {
		t.Fatalf("completion = %v, want 1.0", got)
	}
	if d.BytesRead() != 0 {
		t.Fatalf("bytesRead = %d at issue, want 0", d.BytesRead())
	}
	d.BookRead(60)
	if d.BytesRead() != 60 {
		t.Fatalf("bytesRead = %d after booking 60", d.BytesRead())
	}
}

func TestReadAsyncSharesForegroundLaneWithBlockingOps(t *testing.T) {
	// A blocking read issued after a read-ahead queues behind it in the
	// same (foreground) lane: FIFO within the lane.
	d := &Device{Name: "d", SeekLatency: 0, Bandwidth: 100}
	c := NewClock(DefaultCPU(), 1)
	c.ReadAsync(d, 100, 0) // 1s
	c.Read(d, 100, 0)      // queues behind: completes at 2
	if !approx(c.Now(), 2.0) {
		t.Fatalf("Now = %v, want 2.0", c.Now())
	}
}

func TestReadAsyncPreemptsBackgroundWrites(t *testing.T) {
	// A read-ahead contends with background writes at a fair share, not
	// FIFO behind them: with 10s of bg pending, a 1s read-ahead finishes
	// at ~2s (half rate), not 11s.
	d := &Device{Name: "d", SeekLatency: 0, Bandwidth: 100}
	c := NewClock(DefaultCPU(), 1)
	c.WriteAsync(d, 1000, 0) // 10s of background service
	op := c.ReadAsync(d, 100, 0)
	if got := c.BgCompletion(op); !approx(got, 2.0) {
		t.Fatalf("read-ahead completion = %v, want 2.0 (fair share)", got)
	}
}

// A cancelled read-ahead frees the device and, having booked nothing,
// refunds nothing.
func TestCancelReadAsyncBooksNoBytes(t *testing.T) {
	d := &Device{Name: "d", SeekLatency: 0, Bandwidth: 100}
	c := NewClock(DefaultCPU(), 1)
	c.Read(d, 100, 0) // 1s
	op := c.ReadAsync(d, 100, 0)
	refund := c.CancelAsync(op)
	if refund != 0 || d.BytesRead() != 100 {
		t.Fatalf("refund = %d, bytesRead = %d; want 0 and the blocking read's 100", refund, d.BytesRead())
	}
	c.Read(d, 100, 0)
	if !approx(c.Now(), 2.0) {
		t.Fatalf("read after cancel: Now = %v, want 2.0", c.Now())
	}
}

func TestBothLanesCompleteExactly(t *testing.T) {
	// One op in each lane, both 1s: fair share means both finish at 2s.
	d := &Device{Name: "d", SeekLatency: 0, Bandwidth: 100}
	c := NewClock(DefaultCPU(), 1)
	r := c.ReadAsync(d, 100, 0)
	w := c.WriteAsync(d, 100, 0)
	cr, cw := c.BgCompletion(r), c.BgCompletion(w)
	if !approx(cr, 2.0) || !approx(cw, 2.0) {
		t.Fatalf("completions %v / %v, want 2.0 / 2.0", cr, cw)
	}
	if !r.Done(2.1) || !w.Done(2.1) {
		t.Fatal("ops not done after completion")
	}
}

func TestLaneFIFOWithinEachLane(t *testing.T) {
	d := &Device{Name: "d", SeekLatency: 0, Bandwidth: 100}
	c := NewClock(DefaultCPU(), 1)
	r1 := c.ReadAsync(d, 100, 0)
	r2 := c.ReadAsync(d, 100, 0)
	w1 := c.WriteAsync(d, 100, 0)
	w2 := c.WriteAsync(d, 100, 0)
	// fg lane: r1 then r2; bg lane: w1 then w2; lanes at half rate each.
	if a, b := c.BgCompletion(r1), c.BgCompletion(r2); !(a < b) {
		t.Fatalf("fg lane not FIFO: %v >= %v", a, b)
	}
	if a, b := c.BgCompletion(w1), c.BgCompletion(w2); !(a < b) {
		t.Fatalf("bg lane not FIFO: %v >= %v", a, b)
	}
}

func TestMixedLanesConservationProperty(t *testing.T) {
	// Total busy time equals total service issued minus refunds, and
	// the device is never busy longer than elapsed time.
	f := func(sizes []uint16) bool {
		d := &Device{Name: "d", SeekLatency: 0, Bandwidth: 1e4}
		c := NewClock(DefaultCPU(), 1)
		var issued float64
		var ops []*AsyncOp
		for i, s := range sizes {
			n := int64(s)
			switch i % 4 {
			case 0:
				c.Read(d, n, 0)
				issued += float64(n) / 1e4
			case 1:
				ops = append(ops, c.WriteAsync(d, n, 0))
				issued += float64(n) / 1e4
			case 2:
				ops = append(ops, c.ReadAsync(d, n, 0))
				issued += float64(n) / 1e4
			case 3:
				c.Compute(float64(n) * 1e-7)
			}
		}
		// Drain everything.
		for _, op := range ops {
			c.WaitUntil(c.BgCompletion(op))
		}
		d.advance(c.Now())
		return d.BusyTime() <= issued+1e-9 && d.BusyTime() <= c.Now()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSeekChargedOnStreamSwitchOnly(t *testing.T) {
	d := &Device{Name: "d", SeekLatency: 0.01, Bandwidth: 1000}
	c := NewClock(DefaultCPU(), 1)
	a, b := NewStreamID(), NewStreamID()
	c.Read(d, 100, a) // switch: seek
	c.Read(d, 100, a) // same stream: no seek
	c.Read(d, 100, b) // switch: seek
	c.Read(d, 100, a) // switch back: seek
	if got := d.Seeks(); got != 3 {
		t.Fatalf("seeks = %d, want 3", got)
	}
	// Untagged ops always seek.
	c.Read(d, 100, 0)
	c.Read(d, 100, 0)
	if got := d.Seeks(); got != 5 {
		t.Fatalf("untagged seeks = %d, want 5", got)
	}
}
