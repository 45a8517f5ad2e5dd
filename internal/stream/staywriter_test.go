package stream

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"fastbfs/internal/disksim"
	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
)

func TestStayWriterWritesFileInBackground(t *testing.T) {
	// Edge by edge, then in ragged chunks (what a scatter's merged shards
	// are): the same bytes, in the same device operations, ready at the
	// same virtual time.
	var firstRaw []byte
	var firstReady float64
	var firstOps int64
	for _, chunks := range [][]int{nil, {1, 31, 32, 33, 0, 64, 39}} {
		vol := storage.NewMem()
		dev := disksim.HDD("stay")
		tm, c := timing(dev)
		sw := NewStayWriter(vol, 256, 4)
		defer sw.Shutdown()

		f, err := sw.Begin("stay_0", tm)
		if err != nil {
			t.Fatal(err)
		}
		edges := makeEdges(200)
		if chunks == nil {
			for _, e := range edges {
				if err := f.Append(e); err != nil {
					t.Fatal(err)
				}
			}
		}
		for rest := edges; len(chunks) > 0; chunks = chunks[1:] {
			if err := f.AppendChunk(rest[:chunks[0]]); err != nil {
				t.Fatal(err)
			}
			rest = rest[chunks[0]:]
		}
		if f.Count() != 200 {
			t.Fatalf("Count = %d", f.Count())
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if f.ReadyAt() <= 0 {
			t.Fatal("ReadyAt not set")
		}
		if err := f.Use(); err != nil {
			t.Fatal(err)
		}
		c.WaitUntil(f.ReadyAt())

		raw, err := storage.ReadAll(vol, "stay_0")
		if err != nil {
			t.Fatal(err)
		}
		// Stay files are framed; the payload is the raw edge records.
		data, err := graph.DeframeAll(raw)
		if err != nil {
			t.Fatal(err)
		}
		got, err := graph.BytesToEdges(data)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(edges) {
			t.Fatalf("stay file has %d edges, want %d", len(got), len(edges))
		}
		for i := range edges {
			if got[i] != edges[i] {
				t.Fatalf("edge %d mismatch", i)
			}
		}
		if dev.BytesWritten() != int64(200*graph.EdgeBytes) {
			t.Fatalf("device bytesWritten = %d", dev.BytesWritten())
		}
		if firstRaw == nil {
			firstRaw, firstReady, firstOps = raw, f.ReadyAt(), dev.Ops()
		} else if !bytes.Equal(raw, firstRaw) || f.ReadyAt() != firstReady || dev.Ops() != firstOps {
			t.Fatalf("appended in chunks: %d bytes in %d device operations ready at %v; edge by edge %d in %d at %v",
				len(raw), dev.Ops(), f.ReadyAt(), len(firstRaw), firstOps, firstReady)
		}
	}
}

func TestStayWriterDoesNotAdvanceClock(t *testing.T) {
	vol := storage.NewMem()
	tm, c := timing(disksim.HDD("stay"))
	sw := NewStayWriter(vol, 1<<20, 8)
	defer sw.Shutdown()
	f, _ := sw.Begin("s", tm)
	for _, e := range makeEdges(10000) {
		f.Append(e)
	}
	f.Close()
	if c.Now() != 0 {
		t.Fatalf("async appends advanced the clock to %v", c.Now())
	}
	f.Use()
}

func TestStayWriterBufferExhaustionStalls(t *testing.T) {
	vol := storage.NewMem()
	tm, c := timing(disksim.HDD("stay"))
	// 2 tiny buffers: the engine must wait once they're both in flight —
	// paper condition 1.
	sw := NewStayWriter(vol, 64, 2)
	defer sw.Shutdown()
	f, _ := sw.Begin("s", tm)
	for _, e := range makeEdges(1000) {
		f.Append(e)
	}
	f.Close()
	f.Use()
	if sw.BufferWaits() == 0 {
		t.Fatal("expected buffer-exhaustion waits with 2 tiny buffers")
	}
	if c.IOWait() <= 0 {
		t.Fatal("buffer waits should appear as iowait")
	}
}

func TestStayWriterAmpleBuffersNeverStall(t *testing.T) {
	vol := storage.NewMem()
	tm, c := timing(disksim.HDD("stay"))
	sw := NewStayWriter(vol, 1<<20, 64)
	defer sw.Shutdown()
	f, _ := sw.Begin("s", tm)
	for _, e := range makeEdges(5000) {
		f.Append(e)
	}
	f.Close()
	f.Use()
	if sw.BufferWaits() != 0 {
		t.Fatalf("BufferWaits = %d with ample buffers", sw.BufferWaits())
	}
	if c.IOWait() != 0 {
		t.Fatalf("IOWait = %v with ample buffers", c.IOWait())
	}
}

func TestStayFileDiscardRemovesAndRefunds(t *testing.T) {
	vol := storage.NewMem()
	dev := disksim.HDD("stay")
	tm, c := timing(dev)
	sw := NewStayWriter(vol, 256, 8)
	defer sw.Shutdown()

	f, _ := sw.Begin("s", tm)
	for _, e := range makeEdges(2000) {
		f.Append(e)
	}
	f.Close()
	freeBefore := dev.IdleAt()
	writtenBefore := dev.BytesWritten()
	if err := f.Discard(); err != nil {
		t.Fatal(err)
	}
	if vol.Exists("s") {
		t.Fatal("discarded stay file still on volume")
	}
	// The write had not started (clock at 0), so nearly all reserved
	// device time and bytes must be refunded.
	if !(dev.IdleAt() < freeBefore) {
		t.Fatalf("no device time refunded: idleAt %v -> %v", freeBefore, dev.IdleAt())
	}
	if !(dev.BytesWritten() < writtenBefore) {
		t.Fatalf("no bytes refunded: %d -> %d", writtenBefore, dev.BytesWritten())
	}
	_ = c
}

func TestStayFileDiscardAfterCompletionRefundsNothing(t *testing.T) {
	vol := storage.NewMem()
	dev := disksim.HDD("stay")
	tm, c := timing(dev)
	sw := NewStayWriter(vol, 256, 8)
	defer sw.Shutdown()

	f, _ := sw.Begin("s", tm)
	for _, e := range makeEdges(100) {
		f.Append(e)
	}
	f.Close()
	f.Use() // ensure data done so `published` is set
	c.WaitUntil(f.ReadyAt() + 1)
	written := dev.BytesWritten()
	if err := f.Discard(); err != nil {
		t.Fatal(err)
	}
	if dev.BytesWritten() != written {
		t.Fatal("bytes refunded for an already-completed write")
	}
	if vol.Exists("s") {
		t.Fatal("discarded file still exists")
	}
}

func TestStayFileUseBeforeCloseFails(t *testing.T) {
	vol := storage.NewMem()
	sw := NewStayWriter(vol, 256, 2)
	defer sw.Shutdown()
	f, _ := sw.Begin("s", Timing{})
	if err := f.Use(); err == nil {
		t.Fatal("Use before Close succeeded")
	}
	if err := f.Discard(); err == nil {
		t.Fatal("Discard before Close succeeded")
	}
	f.Close()
	f.Use()
}

func TestStayFileAppendAfterClose(t *testing.T) {
	vol := storage.NewMem()
	sw := NewStayWriter(vol, 256, 2)
	defer sw.Shutdown()
	f, _ := sw.Begin("s", Timing{})
	f.Close()
	if err := f.Append(graph.Edge{}); err == nil {
		t.Fatal("append after close succeeded")
	}
	f.Use()
}

func TestStayWriterSurfacesWriteErrors(t *testing.T) {
	vol := storage.NewMem()
	boom := errors.New("disk on fire")
	vol.FailWrites(func(name string, written int64) error {
		if name == "s" {
			return boom
		}
		return nil
	})
	sw := NewStayWriter(vol, 64, 2)
	defer sw.Shutdown()
	f, _ := sw.Begin("s", Timing{})
	for _, e := range makeEdges(100) {
		f.Append(e)
	}
	f.Close()
	if err := f.Use(); !errors.Is(err, boom) {
		t.Fatalf("Use error = %v, want injected fault", err)
	}
	if vol.Exists("s") {
		t.Fatal("failed stay file was published")
	}
}

func TestStayWriterManyFilesInterleaved(t *testing.T) {
	vol := storage.NewMem()
	tm, c := timing(disksim.HDD("stay"))
	sw := NewStayWriter(vol, 128, 4)
	defer sw.Shutdown()

	const files = 8
	handles := make([]*StayFile, files)
	for i := range handles {
		f, err := sw.Begin(fmt.Sprintf("s%d", i), tm)
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = f
	}
	for round := 0; round < 50; round++ {
		for i, f := range handles {
			f.Append(graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(round)})
		}
	}
	for _, f := range handles {
		f.Close()
	}
	for i, f := range handles {
		if err := f.Use(); err != nil {
			t.Fatal(err)
		}
		c.WaitUntil(f.ReadyAt())
		raw, err := storage.ReadAll(vol, fmt.Sprintf("s%d", i))
		if err != nil {
			t.Fatal(err)
		}
		data, err := graph.DeframeAll(raw)
		if err != nil {
			t.Fatal(err)
		}
		edges, err := graph.BytesToEdges(data)
		if err != nil {
			t.Fatal(err)
		}
		if len(edges) != 50 {
			t.Fatalf("file s%d has %d edges, want 50", i, len(edges))
		}
		for r, e := range edges {
			if e.Src != graph.VertexID(i) || e.Dst != graph.VertexID(r) {
				t.Fatalf("file s%d edge %d = %v", i, r, e)
			}
		}
	}
}

// stayGate parks the writer goroutine inside its first storage write of
// the file "s" until release is closed, so a test can fill the private
// buffers behind it deterministically.
type stayGate struct {
	parked, release chan struct{}
	fail            error // returned by every write once released
}

func gateStayWrites(vol *storage.Mem, fail error) *stayGate {
	g := &stayGate{parked: make(chan struct{}), release: make(chan struct{}), fail: fail}
	first := true
	vol.FailWrites(func(name string, written int64) error {
		if name != "s" {
			return nil
		}
		if first { // the hook only ever runs on the writer goroutine
			first = false
			close(g.parked)
			<-g.release
		}
		return g.fail
	})
	return g
}

// TestStayWriterHoldsBoundedBuffers is the buffer-accounting contract: a
// StayWriter with one file open at a time holds at most bufCount+2
// buffers however long the file and however slow the device — it reaches
// exactly that many when the writer goroutine stalls — and has returned
// every one of them once the file is used, discarded before its writes
// ran, or failed on a permanent write fault; the final flush issued by
// Close takes no replacement buffer.
func TestStayWriterHoldsBoundedBuffers(t *testing.T) {
	const bufSize, bufCount = 256, 4
	perBuf := bufSize / graph.EdgeBytes
	boom := errors.New("stay disk gone")
	for _, codec := range []graph.Codec{graph.CodecFixed, graph.CodecDelta} {
		for _, tc := range []struct {
			name string
			fail error
			// finish resolves the closed file and returns whether it must
			// exist on the volume afterwards.
			finish func(t *testing.T, f *StayFile) bool
		}{
			{"use", nil, func(t *testing.T, f *StayFile) bool {
				if err := f.Use(); err != nil {
					t.Fatal(err)
				}
				return true
			}},
			{"write-fault", boom, func(t *testing.T, f *StayFile) bool {
				if err := f.Use(); !errors.Is(err, boom) {
					t.Fatalf("Use = %v, want the injected fault", err)
				}
				return false
			}},
		} {
			t.Run(string(codec)+"/"+tc.name, func(t *testing.T) {
				a := audited(t)
				vol := storage.NewMem()
				gate := gateStayWrites(vol, tc.fail)
				sw := NewStayWriter(vol, bufSize, bufCount)
				defer sw.Shutdown()
				f, err := sw.BeginCodec("s", Timing{Bufs: NewBufPool()}, codec)
				if err != nil {
					t.Fatal(err)
				}
				// Release the parked writer only once the engine side has
				// handed off every buffer it may: the next Append then
				// blocks on the bound, holding exactly bufCount+2.
				go func() {
					<-gate.parked
					for len(sw.slots) < cap(sw.slots) {
						runtime.Gosched()
					}
					close(gate.release)
				}()
				edges := makeEdges(40 * perBuf)
				for _, e := range edges {
					if err := f.Append(e); err != nil {
						t.Fatal(err)
					}
				}
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
				published := tc.finish(t, f)
				if got := a.Peak(); got != bufCount+2 {
					t.Errorf("peak of %d buffers, want exactly bufCount+2 = %d", got, bufCount+2)
				}
				if n := a.Outstanding(); n != 0 {
					t.Errorf("%d buffers outstanding after the file was resolved", n)
				}
				if vol.Exists("s") != published {
					t.Errorf("file on volume = %v, want %v", vol.Exists("s"), published)
				}
				if !published {
					return
				}
				sc, err := NewEdgeScanner(vol, "s", Timing{}, bufSize)
				if err != nil {
					t.Fatal(err)
				}
				defer sc.Close()
				for i, want := range edges {
					if got, ok, err := sc.Next(); err != nil || !ok || got != want {
						t.Fatalf("edge %d = %v ok=%v err=%v, want %v (a recycled buffer leaked into the file)", i, got, ok, err, want)
					}
				}
			})
		}

		// Cancel: Discard lands while the first write is still parked, so
		// every queued buffer is skipped — and still returned.
		t.Run(string(codec)+"/discard-before-write", func(t *testing.T) {
			a := audited(t)
			vol := storage.NewMem()
			gate := gateStayWrites(vol, nil)
			sw := NewStayWriter(vol, bufSize, bufCount)
			defer sw.Shutdown()
			f, err := sw.BeginCodec("s", Timing{Bufs: NewBufPool()}, codec)
			if err != nil {
				t.Fatal(err)
			}
			// Three full buffers and a tail: four writes and the close fit
			// the queue behind the parked goroutine without blocking.
			for _, e := range makeEdges(3*perBuf + 5) {
				if err := f.Append(e); err != nil {
					t.Fatal(err)
				}
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			<-gate.parked
			if n := a.Outstanding(); n != 4 {
				t.Errorf("%d buffers outstanding with four writes queued and the file closed, want 4 (Close must not take a replacement)", n)
			}
			done := make(chan error, 1)
			go func() { done <- f.Discard() }()
			for !f.discard.Load() {
				runtime.Gosched()
			}
			close(gate.release)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if n := a.Outstanding(); n != 0 {
				t.Errorf("%d buffers outstanding after Discard returned", n)
			}
			if vol.Exists("s") {
				t.Error("discarded stay file was published")
			}
		})
	}
}
