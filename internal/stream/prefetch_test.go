package stream

import (
	"testing"

	"fastbfs/internal/disksim"
	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
)

func TestPrefetchReadsAllRecords(t *testing.T) {
	vol := storage.NewMem()
	edges := makeEdges(3000)
	writeEdgesFile(t, vol, "e", edges)
	tm, c := timing(disksim.HDD("d"))
	sc, err := NewEdgeScanner(vol, "e", tm, 256)
	if err != nil {
		t.Fatal(err)
	}
	sc.Prefetch(4)
	defer sc.Close()
	for i := 0; ; i++ {
		e, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if i != len(edges) {
				t.Fatalf("scanned %d of %d edges", i, len(edges))
			}
			break
		}
		if e != edges[i] {
			t.Fatalf("edge %d = %v, want %v", i, e, edges[i])
		}
	}
	if sc.BytesRead() != int64(len(edges)*graph.EdgeBytes) {
		t.Fatalf("BytesRead = %d", sc.BytesRead())
	}
	if c.Now() <= 0 {
		t.Fatal("prefetch charged no time at all")
	}
}

func TestPrefetchChargesSameBytesAsBlockingReads(t *testing.T) {
	vol := storage.NewMem()
	edges := makeEdges(2048)
	writeEdgesFile(t, vol, "e", edges)
	run := func(depth int) int64 {
		dev := disksim.HDD("d")
		tm := Timing{Clock: disksim.NewClock(disksim.DefaultCPU(), 1), Device: dev}
		sc, err := NewEdgeScanner(vol, "e", tm, 512)
		if err != nil {
			t.Fatal(err)
		}
		sc.Prefetch(depth)
		defer sc.Close()
		for {
			_, ok, err := sc.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
		}
		return dev.BytesRead()
	}
	if blocking, ahead := run(0), run(4); blocking != ahead {
		t.Fatalf("device bytes differ: blocking=%d prefetch=%d", blocking, ahead)
	}
}

func TestPrefetchOverlapsOtherDeviceIO(t *testing.T) {
	// The point of read-ahead: a scanner's transfer on device A drains
	// while the engine stalls on device B. Sequence: open+prefetch on A,
	// do a big synchronous read on B, then consume A — A's chunks must
	// already be (partly) done, so total time < serial sum.
	vol := storage.NewMem()
	edges := makeEdges(64 << 10) // 512 KiB
	writeEdgesFile(t, vol, "a", edges)
	if err := storage.WriteAll(vol, "b", make([]byte, 512<<10)); err != nil {
		t.Fatal(err)
	}
	run := func(depth int) float64 {
		devA := disksim.HDD("A")
		devB := disksim.HDD("B")
		c := disksim.NewClock(disksim.DefaultCPU(), 1)
		sc, err := NewEdgeScanner(vol, "a", Timing{Clock: c, Device: devA}, 64<<10)
		if err != nil {
			t.Fatal(err)
		}
		sc.Prefetch(depth)
		defer sc.Close()
		c.Read(devB, 512<<10, 0) // engine stalls on the other device
		for {
			_, ok, err := sc.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
		}
		return c.Now()
	}
	serial, overlapped := run(0), run(8)
	if !(overlapped < serial*0.75) {
		t.Fatalf("prefetch gave no cross-device overlap: %v vs %v", overlapped, serial)
	}
}

func TestPrefetchCloseCancelsOutstandingReads(t *testing.T) {
	vol := storage.NewMem()
	edges := makeEdges(8192) // 64 KiB
	writeEdgesFile(t, vol, "e", edges)
	dev := disksim.HDD("d")
	c := disksim.NewClock(disksim.DefaultCPU(), 1)
	sc, err := NewEdgeScanner(vol, "e", Timing{Clock: c, Device: dev}, 4096)
	if err != nil {
		t.Fatal(err)
	}
	sc.Prefetch(16) // covers the whole file
	if dev.IdleAt() <= c.Now() {
		t.Fatal("no read-ahead issued at Prefetch")
	}
	// Consume just one buffer, then abandon the scan.
	if _, ok, err := sc.Next(); !ok || err != nil {
		t.Fatalf("Next: ok=%v err=%v", ok, err)
	}
	if dev.IdleAt() <= c.Now() {
		t.Fatal("the read-ahead past the first buffer is already done; nothing left to cancel")
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
	if idle := dev.IdleAt(); idle > c.Now()+1e-12 {
		t.Fatalf("device busy until %v after Close at %v: the read-ahead was not cancelled", idle, c.Now())
	}
	if got, want := dev.BytesRead(), sc.BytesRead(); got != want || want != 4096 {
		t.Fatalf("device booked %d bytes, the scan consumed %d (want one 4096-byte buffer)", got, want)
	}
}

// TestPrefetchBooksWhatItConsumed: a read-ahead scan books exactly the
// device bytes it consumed (its BytesRead) and has waited for every op
// those bytes came from — over raw, framed and delta files, read to the
// end, closed after one refill, or closed unread. A framed or delta file's
// ops are sized in file bytes, which its device bytes fall short of.
func TestPrefetchBooksWhatItConsumed(t *testing.T) {
	edges := makeEdges(8192) // 64 KiB of records
	vol := storage.NewMem()
	writeEdgesFile(t, vol, "raw", edges)
	for _, f := range []struct {
		name string
		open func(name string) (*Writer[graph.Edge], error)
	}{
		{"framed", func(name string) (*Writer[graph.Edge], error) { return NewFramedEdgeWriter(vol, name, Timing{}, 3000) }},
		{"delta", func(name string) (*Writer[graph.Edge], error) {
			return NewCodecEdgeWriter(vol, name, Timing{}, 3000, graph.CodecDelta)
		}},
	} {
		w, err := f.open(f.name)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AppendChunk(edges); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	const bufSize = 4096
	for _, file := range []string{"raw", "framed", "delta"} {
		for _, refills := range []int{-1, 1, 0} { // -1: to the end
			dev := disksim.HDD("d")
			c := disksim.NewClock(disksim.DefaultCPU(), 1)
			sc, err := NewEdgeScanner(vol, file, Timing{Clock: c, Device: dev, MemBW: 1e9}, bufSize)
			if err != nil {
				t.Fatal(err)
			}
			sc.Prefetch(64) // issues every op of the file up front
			ops, sizes := append([]*disksim.AsyncOp(nil), sc.pending...), append([]int64(nil), sc.pendingN...)
			if size, err := vol.Size(file); err != nil || sc.issued != size {
				t.Fatalf("%s: read-ahead covers %d of %d file bytes (%v)", file, sc.issued, size, err)
			}
			chunk := make([]graph.Edge, bufSize/graph.EdgeBytes)
			for i := 0; refills < 0 || i < refills; i++ {
				n, err := sc.NextChunk(chunk)
				if err != nil {
					t.Fatal(err)
				}
				if n == 0 {
					break
				}
			}
			used := sc.BytesRead()
			var start int64
			for i, op := range ops {
				if (used > start || refills < 0) && !op.Done(c.Now()) {
					t.Errorf("%s, %d refills: op %d (bytes %d..%d) served the scan's %d bytes but the clock at %v never waited for it",
						file, refills, i, start, start+sizes[i], used, c.Now())
				}
				start += sizes[i]
			}
			if err := sc.Close(); err != nil {
				t.Fatal(err)
			}
			if got := dev.BytesRead(); got != used {
				t.Errorf("%s, %d refills: device booked %d bytes, the scan consumed %d", file, refills, got, used)
			}
			if refills == 0 && (used != 0 || c.Now() != 0) {
				t.Errorf("%s: an unread scan consumed %d bytes and took %v s", file, used, c.Now())
			}
			// Raw and framed files move their record bytes, delta ones fewer.
			if records := int64(len(edges) * graph.EdgeBytes); refills < 0 && (used > records || file != "delta" && used != records) {
				t.Errorf("%s: a full scan consumed %d device bytes for %d record bytes", file, used, records)
			}
		}
	}
}

func TestPrefetchNoOpWithoutClock(t *testing.T) {
	vol := storage.NewMem()
	edges := makeEdges(100)
	writeEdgesFile(t, vol, "e", edges)
	sc, err := NewEdgeScanner(vol, "e", Timing{}, 256)
	if err != nil {
		t.Fatal(err)
	}
	sc.Prefetch(4) // must not panic or change behaviour
	defer sc.Close()
	n := 0
	for {
		_, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	if n != 100 {
		t.Fatalf("scanned %d", n)
	}
}

func TestPrefetchKeepsEnginePriorityOverStayWrites(t *testing.T) {
	// Read-ahead lives on the foreground lane: a huge background stay
	// backlog must not starve it (fair share at worst), unlike if it
	// were queued behind the stays in the background lane.
	vol := storage.NewMem()
	edges := makeEdges(4096) // 32 KiB
	writeEdgesFile(t, vol, "e", edges)
	dev := disksim.HDD("d")
	c := disksim.NewClock(disksim.DefaultCPU(), 1)
	// 10 MB of background writes pending.
	c.WriteAsync(dev, 10<<20, 0)
	sc, err := NewEdgeScanner(vol, "e", Timing{Clock: c, Device: dev}, 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	sc.Prefetch(2)
	defer sc.Close()
	for {
		_, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	// Fair share: the 32 KiB read takes at most ~2x its solo time plus
	// seek, nowhere near the ~87ms the 10MB backlog needs.
	if c.Now() > 0.02 {
		t.Fatalf("read-ahead starved behind background writes: %v s", c.Now())
	}
}

// --- update-scanner read-ahead (the gather side uses the same knob) ---

func makeUpdates(n int) []graph.Update {
	us := make([]graph.Update, n)
	for i := range us {
		us[i] = graph.Update{Dst: graph.VertexID(i), Parent: graph.VertexID(3 * i)}
	}
	return us
}

func writeUpdatesFile(t *testing.T, vol storage.Volume, name string, us []graph.Update) {
	t.Helper()
	buf := make([]byte, len(us)*graph.UpdateBytes)
	for i, u := range us {
		graph.PutUpdate(buf[i*graph.UpdateBytes:], u)
	}
	if err := storage.WriteAll(vol, name, buf); err != nil {
		t.Fatal(err)
	}
}

func TestPrefetchUpdateScannerReadsAllRecords(t *testing.T) {
	vol := storage.NewMem()
	us := makeUpdates(3000)
	writeUpdatesFile(t, vol, "u", us)
	tm, c := timing(disksim.HDD("d"))
	sc, err := NewUpdateScanner(vol, "u", tm, 256)
	if err != nil {
		t.Fatal(err)
	}
	sc.Prefetch(4)
	defer sc.Close()
	for i := 0; ; i++ {
		u, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if i != len(us) {
				t.Fatalf("scanned %d of %d updates", i, len(us))
			}
			break
		}
		if u != us[i] {
			t.Fatalf("update %d = %v, want %v", i, u, us[i])
		}
	}
	if sc.BytesRead() != int64(len(us)*graph.UpdateBytes) {
		t.Fatalf("BytesRead = %d", sc.BytesRead())
	}
	if c.Now() <= 0 {
		t.Fatal("prefetch charged no time at all")
	}
}

func TestPrefetchUpdateScannerChargesSameBytesAsBlockingReads(t *testing.T) {
	vol := storage.NewMem()
	us := makeUpdates(2048)
	writeUpdatesFile(t, vol, "u", us)
	run := func(depth int) int64 {
		dev := disksim.HDD("d")
		tm := Timing{Clock: disksim.NewClock(disksim.DefaultCPU(), 1), Device: dev}
		sc, err := NewUpdateScanner(vol, "u", tm, 512)
		if err != nil {
			t.Fatal(err)
		}
		sc.Prefetch(depth)
		defer sc.Close()
		for {
			_, ok, err := sc.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
		}
		return dev.BytesRead()
	}
	if blocking, ahead := run(0), run(4); blocking != ahead {
		t.Fatalf("device bytes differ: blocking=%d prefetch=%d", blocking, ahead)
	}
}

func TestPrefetchUpdateScannerOverlapsOtherDeviceIO(t *testing.T) {
	// The gather-side payoff: the update stream's read-ahead on the aux
	// disk drains while the engine reads the edge input on the main disk.
	vol := storage.NewMem()
	us := makeUpdates(64 << 10) // 512 KiB
	writeUpdatesFile(t, vol, "u", us)
	run := func(depth int) float64 {
		devA := disksim.HDD("A")
		devB := disksim.HDD("B")
		c := disksim.NewClock(disksim.DefaultCPU(), 1)
		sc, err := NewUpdateScanner(vol, "u", Timing{Clock: c, Device: devA}, 64<<10)
		if err != nil {
			t.Fatal(err)
		}
		sc.Prefetch(depth)
		defer sc.Close()
		c.Read(devB, 512<<10, 0)
		for {
			_, ok, err := sc.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
		}
		return c.Now()
	}
	serial, overlapped := run(0), run(8)
	if !(overlapped < serial*0.75) {
		t.Fatalf("update prefetch gave no cross-device overlap: %v vs %v", overlapped, serial)
	}
}
