package stream

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"

	"fastbfs/internal/errs"
	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
)

// audited installs a PoolAudit for the test and, at its end, requires
// every buffer taken from every pool created meanwhile to be back.
func audited(t *testing.T) *PoolAudit {
	t.Helper()
	a := AuditPools()
	t.Cleanup(func() {
		a.Stop()
		if n := a.Outstanding(); n != 0 {
			t.Errorf("%d stream buffers still outstanding at the end of the test", n)
		}
	})
	return a
}

func mustPanic(t *testing.T, what, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s did not panic", what)
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("%s panicked with %v, want a message containing %q", what, r, want)
		}
	}()
	f()
}

func TestBufPoolRecyclesExactSizes(t *testing.T) {
	p := NewBufPool()
	a := p.Get(4096)
	if len(a) != 4096 || cap(a) != 4096 {
		t.Fatalf("Get(4096) = len %d cap %d", len(a), cap(a))
	}
	p.Put(a[:10]) // re-sliced from the front is still the same buffer
	if b := p.Get(4095); &b[0] == &a[0] {
		t.Fatal("Get(4095) reused a 4096-byte buffer: size classes must be exact")
	}
	if b := p.Get(4096); &b[0] != &a[0] || len(b) != 4096 {
		t.Fatal("Get(4096) did not reuse the returned 4096-byte buffer at full length")
	}
	if b := p.Get(4096); &b[0] == &a[0] {
		t.Fatal("one buffer handed out twice")
	}
	if b := p.Get(0); len(b) != 0 {
		t.Fatalf("Get(0) = %d bytes", len(b))
	}
	p.Put(nil)
}

func TestNilBufPoolAllocates(t *testing.T) {
	var p *BufPool
	b := p.Get(64)
	if len(b) != 64 {
		t.Fatalf("nil pool Get(64) = %d bytes", len(b))
	}
	p.Put(b)
	if c := p.Get(64); &c[0] == &b[0] {
		t.Fatal("nil pool recycled a buffer")
	}
}

func TestPoolAuditCatchesMisuse(t *testing.T) {
	a := AuditPools()
	defer a.Stop()
	p, q := NewBufPool(), NewBufPool()

	b := p.Get(32)
	for i, c := range b {
		if c != 0xA5 {
			t.Fatalf("byte %d of a fresh audited buffer = %#x, want the poison 0xA5", i, c)
		}
	}
	copy(b, "live data")
	if a.Outstanding() != 1 {
		t.Fatalf("Outstanding = %d after one Get", a.Outstanding())
	}
	p.Put(b)
	if a.Outstanding() != 0 {
		t.Fatalf("Outstanding = %d after the Put", a.Outstanding())
	}
	for i, c := range b {
		if c != 0xA5 {
			t.Fatalf("byte %d of a returned buffer = %#x, want the poison 0xA5", i, c)
		}
	}
	mustPanic(t, "double Put", "not outstanding", func() { p.Put(b) })
	mustPanic(t, "Put of a foreign slice", "not outstanding", func() { p.Put(make([]byte, 32)) })
	c := p.Get(32)
	mustPanic(t, "Put into another pool", "did not hand it out", func() { q.Put(c) })
	p.Put(c)
	if a.Peak() != 1 || a.Outstanding() != 0 {
		t.Fatalf("Peak = %d, Outstanding = %d; want 1 and 0", a.Peak(), a.Outstanding())
	}
}

func TestBufPoolConcurrentGetPut(t *testing.T) {
	audited(t)
	p := NewBufPool()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				b := p.Get(128 << (i % 3))
				b[0], b[len(b)-1] = byte(g), byte(i)
				runtime.Gosched()
				if b[0] != byte(g) || b[len(b)-1] != byte(i) {
					t.Errorf("goroutine %d: buffer changed under its owner", g)
					return
				}
				p.Put(b)
			}
		}(g)
	}
	wg.Wait()
}

// TestStreamsReturnBuffersAndFailAfterClose: a scanner and a writer —
// raw, framed and delta — give every buffer back at Close or Abort, a
// reopened stream reuses them, and a closed stream fails loudly instead
// of touching a buffer it no longer owns.
func TestStreamsReturnBuffersAndFailAfterClose(t *testing.T) {
	a := audited(t)
	vol := storage.NewMem()
	tm := Timing{Bufs: NewBufPool()}
	edges := makeEdges(1000)

	for _, codec := range []graph.Codec{graph.CodecFixed, graph.CodecDelta} {
		for _, framed := range []bool{false, true} {
			name := "e_" + string(codec)
			open := NewCodecEdgeWriter
			if framed {
				name, open = name+"_framed", NewCodecFramedEdgeWriter
			}
			w, err := open(vol, name, tm, 256, codec)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.AppendChunk(edges[:500]); err != nil {
				t.Fatal(err)
			}
			for _, e := range edges[500:] {
				if err := w.Append(e); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if n := a.Outstanding(); n != 0 {
				t.Fatalf("%s: %d buffers outstanding after the writer closed", name, n)
			}
			if err := w.Append(edges[0]); err == nil {
				t.Fatalf("%s: Append after Close succeeded", name)
			}
			if err := w.AppendChunk(edges[:1]); err == nil {
				t.Fatalf("%s: AppendChunk after Close succeeded", name)
			}

			sc, err := NewEdgeScanner(vol, name, tm, 256)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]graph.Edge, 0, len(edges))
			chunk := make([]graph.Edge, 32)
			for {
				n, err := sc.NextChunk(chunk)
				if err != nil {
					t.Fatal(err)
				}
				if n == 0 {
					break
				}
				got = append(got, chunk[:n]...)
			}
			if len(got) != len(edges) {
				t.Fatalf("%s: read %d edges back, want %d", name, len(got), len(edges))
			}
			for i := range edges {
				if got[i] != edges[i] {
					t.Fatalf("%s: edge %d = %v, want %v (a recycled buffer leaked into the stream)", name, i, got[i], edges[i])
				}
			}
			if err := sc.Close(); err != nil {
				t.Fatal(err)
			}
			if n := a.Outstanding(); n != 0 {
				t.Fatalf("%s: %d buffers outstanding after the scanner closed", name, n)
			}
			if _, _, err := sc.Next(); err == nil {
				t.Fatalf("%s: Next after Close succeeded", name)
			}
			if _, err := sc.NextChunk(chunk); err == nil {
				t.Fatalf("%s: NextChunk after Close succeeded", name)
			}
		}
	}

	// Abort returns the buffers too, and an abandoned scan (Close before
	// end of stream) does as well.
	w, err := NewCodecFramedEdgeWriter(vol, "aborted", tm, 256, graph.CodecDelta)
	if err != nil {
		t.Fatal(err)
	}
	w.AppendChunk(edges)
	w.Abort()
	sc, err := NewEdgeScanner(vol, "e_delta_framed", tm, 256)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sc.Next(); err != nil {
		t.Fatal(err)
	}
	sc.Close()
	if n := a.Outstanding(); n != 0 {
		t.Fatalf("%d buffers outstanding after an Abort and an abandoned scan", n)
	}
	if a.Peak() > 3 {
		t.Fatalf("peak of %d buffers for one stream at a time; want at most 3 (scan buffer, frame payload, delta block)", a.Peak())
	}
}

// TestScatterPoolFaultHookPanicUnderAudit runs the scatter pool's
// panic-recovery tests with the poisoning audit installed, and the same
// recovery over a pooled scanner: the run fails with ErrInternal and the
// scanner's buffers are all back once the caller has closed it.
func TestScatterPoolFaultHookPanicUnderAudit(t *testing.T) {
	audited(t)
	TestScatterPoolFaultHookPanic(t)
	TestScatterPoolRecoversPanics(t)

	vol := storage.NewMem()
	tm := Timing{Bufs: NewBufPool()}
	w, err := NewFramedEdgeWriter(vol, "e", tm, 512)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendChunk(makeEdges(4000)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		sc, err := NewEdgeScanner(vol, "e", tm, 512)
		if err != nil {
			t.Fatal(err)
		}
		sp := NewScatterPool(workers, 512/graph.EdgeBytes, 1)
		calls := 0
		var mu sync.Mutex
		sp.FaultHook = func() {
			mu.Lock()
			calls++
			n := calls
			mu.Unlock()
			if n == 5 {
				panic("injected fault")
			}
		}
		err = sp.RunScanner(sc, func(chunk []graph.Edge, out *Shard) { out.Scanned += int64(len(chunk)) },
			func(s *Shard) error { return nil })
		sc.Close()
		if !errors.Is(err, errs.ErrInternal) {
			t.Fatalf("workers=%d: err = %v, want ErrInternal", workers, err)
		}
	}
}
