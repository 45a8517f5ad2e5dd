package obs

import (
	"bytes"
	"sync"
	"testing"
)

func TestSpanNestingAndOrdering(t *testing.T) {
	col := &Collect{}
	tr := New(col)
	// Deterministic virtual clock: each call advances by 1s.
	tick := 0.0
	tr.SetTimeSource(func() float64 { tick++; return tick })

	run := tr.Span("run")
	it := run.Child("iteration").SetIter(3)
	sc := it.Child("scatter").SetPart(2)
	sc.Attr("edges", 42).End()
	it.End()
	run.End()

	evs := col.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	// Children end before parents: scatter, iteration, run.
	if evs[0].Name != "scatter" || evs[1].Name != "iteration" || evs[2].Name != "run" {
		t.Fatalf("bad emit order: %s, %s, %s", evs[0].Name, evs[1].Name, evs[2].Name)
	}
	scE, itE, runE := evs[0], evs[1], evs[2]
	if scE.Parent != itE.ID || itE.Parent != runE.ID {
		t.Errorf("parent links wrong: scatter.parent=%d iter.id=%d iter.parent=%d run.id=%d",
			scE.Parent, itE.ID, itE.Parent, runE.ID)
	}
	if runE.Parent != 0 {
		t.Errorf("root span has parent %d", runE.Parent)
	}
	// Iter/part inheritance: the child picks up the iteration tag.
	if scE.Iter != 3 || scE.Part != 2 {
		t.Errorf("scatter iter=%d part=%d, want 3/2", scE.Iter, scE.Part)
	}
	if itE.Iter != 3 || itE.Part != -1 {
		t.Errorf("iteration iter=%d part=%d, want 3/-1", itE.Iter, itE.Part)
	}
	if runE.Iter != -1 {
		t.Errorf("run iter=%d, want -1", runE.Iter)
	}
	// Interval nesting on the virtual timeline.
	if !(runE.Start <= itE.Start && itE.Start <= scE.Start) {
		t.Errorf("start ordering wrong: run=%v iter=%v scatter=%v", runE.Start, itE.Start, scE.Start)
	}
	if !(scE.T <= itE.T && itE.T <= runE.T) {
		t.Errorf("end ordering wrong: scatter=%v iter=%v run=%v", scE.T, itE.T, runE.T)
	}
	if scE.Dur != scE.T-scE.Start {
		t.Errorf("dur %v != end-start %v", scE.Dur, scE.T-scE.Start)
	}
	if scE.Attrs["edges"] != 42 {
		t.Errorf("attr edges = %d, want 42", scE.Attrs["edges"])
	}
	if tr.LastTime() != tick {
		t.Errorf("LastTime = %v, want %v", tr.LastTime(), tick)
	}
}

func TestConcurrentCounters(t *testing.T) {
	tr := New()
	const G, N = 8, 1000
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := tr.Counter("edges") // same counter from every goroutine
			for i := 0; i < N; i++ {
				c.Add(1)
			}
		}()
	}
	// Concurrent readers while writers run (the debug endpoint's path).
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = tr.Snapshot()
			_ = tr.CounterMap()
		}
	}()
	wg.Wait()
	<-done
	if got := tr.Counter("edges").Value(); got != G*N {
		t.Errorf("counter = %d, want %d", got, G*N)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := New(NewJSONLSink(&buf))
	tr.Note("run", map[string]string{"engine": "fastbfs", "mode": "sim"})
	tr.Counter("edges").Add(7)
	s := tr.Span("run")
	s.Child("load").SetIter(-1).Attr("edges", 9).End()
	s.End()
	tr.EmitCounters()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	evs, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	if evs[0].Kind != KindNote || evs[0].Labels["engine"] != "fastbfs" {
		t.Errorf("note event wrong: %+v", evs[0])
	}
	if evs[1].Kind != KindSpan || evs[1].Name != "load" || evs[1].Iter != -1 || evs[1].Attrs["edges"] != 9 {
		t.Errorf("load span wrong: %+v", evs[1])
	}
	if evs[2].Kind != KindSpan || evs[2].Name != "run" || evs[2].ID != evs[1].Parent {
		t.Errorf("run span wrong: %+v", evs[2])
	}
	if evs[3].Kind != KindCounters || evs[3].Counters["edges"] != 7 {
		t.Errorf("counters event wrong: %+v", evs[3])
	}
}

func TestNilTracerIsNoop(t *testing.T) {
	var tr *Tracer
	// Every call must be safe and inert on the nil tracer.
	tr.SetTimeSource(func() float64 { return 1 })
	tr.Note("x", nil)
	tr.EmitCounters()
	if tr.LastTime() != 0 || tr.Snapshot() != nil || tr.CounterMap() != nil {
		t.Error("nil tracer leaked state")
	}
	c := tr.Counter("edges")
	c.Add(5)
	c.Set(9)
	if c.Value() != 0 || c.Name() != "" {
		t.Error("nil counter not inert")
	}
	s := tr.Span("run").Child("iteration").SetIter(1).SetPart(2).Attr("a", 3)
	if s != nil {
		t.Error("nil span chain returned non-nil")
	}
	s.End()
	if err := tr.Close(); err != nil {
		t.Error(err)
	}
}

// noopScatterPath is the instrumentation the engines' scatter hot path
// keeps — its spans and the worker pool's two live counters — against a
// disabled tracer.
func noopScatterPath(tr *Tracer, chunks, busy *Counter) {
	sp := tr.Span("scatter")
	sp = sp.SetIter(3).SetPart(1)
	chunks.Add(1)
	busy.Add(1)
	sp.Attr("edges", 1).End()
}

func TestNoopZeroAllocs(t *testing.T) {
	var tr *Tracer
	chunks, busy := tr.Counter(CtrScatterChunks), tr.Counter(CtrScatterBusyNs)
	if avg := testing.AllocsPerRun(1000, func() { noopScatterPath(tr, chunks, busy) }); avg != 0 {
		t.Errorf("no-op tracer allocates %v per op, want 0", avg)
	}
}

// BenchmarkNoopScatterPath asserts the acceptance criterion directly:
// 0 allocs/op with the tracer disabled.
func BenchmarkNoopScatterPath(b *testing.B) {
	var tr *Tracer
	chunks, busy := tr.Counter(CtrScatterChunks), tr.Counter(CtrScatterBusyNs)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		noopScatterPath(tr, chunks, busy)
	}
}

func TestVirtualTimeSource(t *testing.T) {
	col := &Collect{}
	tr := New(col)
	now := 100.0
	tr.SetTimeSource(func() float64 { return now })
	s := tr.Span("run")
	now = 105.5
	s.End()
	evs := col.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d events", len(evs))
	}
	if evs[0].Start != 100 || evs[0].T != 105.5 || evs[0].Dur != 5.5 {
		t.Errorf("virtual times wrong: start=%v end=%v dur=%v", evs[0].Start, evs[0].T, evs[0].Dur)
	}
}
