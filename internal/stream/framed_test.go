package stream

import (
	"bytes"
	"errors"
	"testing"

	"fastbfs/internal/disksim"
	"fastbfs/internal/errs"
	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
)

func TestUpdateWriterProducesFramedFile(t *testing.T) {
	vol := storage.NewMem()
	w, err := NewUpdateWriter(vol, "u", Timing{}, 64)
	if err != nil {
		t.Fatal(err)
	}
	var want []graph.Update
	for i := 0; i < 100; i++ {
		u := graph.Update{Dst: graph.VertexID(i), Parent: graph.VertexID(i * 2)}
		want = append(want, u)
		if err := w.Append(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := storage.ReadAll(vol, "u")
	if err != nil {
		t.Fatal(err)
	}
	payload, err := graph.DeframeAll(raw)
	if err != nil {
		t.Fatalf("update file is not a valid framed stream: %v", err)
	}
	if len(payload) != 100*graph.UpdateBytes {
		t.Fatalf("payload %d bytes, want %d", len(payload), 100*graph.UpdateBytes)
	}
	// And the sniffing scanner decodes it back.
	sc, err := NewUpdateScanner(vol, "u", Timing{}, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	for i, wu := range want {
		u, ok, err := sc.Next()
		if err != nil || !ok {
			t.Fatalf("record %d: ok=%v err=%v", i, ok, err)
		}
		if u != wu {
			t.Fatalf("record %d = %v, want %v", i, u, wu)
		}
	}
	if _, ok, _ := sc.Next(); ok {
		t.Fatal("scanner returned extra records")
	}
}

func TestWriterBytesAccountingIsPayloadOnly(t *testing.T) {
	vol := storage.NewMem()
	dev := disksim.HDD("d")
	tm, _ := timing(dev)
	w, err := NewUpdateWriter(vol, "u", tm, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := w.Append(graph.Update{Dst: graph.VertexID(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := dev.BytesWritten(), int64(1000*graph.UpdateBytes); got != want {
		t.Fatalf("device BytesWritten = %d, want payload-only %d", got, want)
	}
	size, err := vol.Size("u")
	if err != nil {
		t.Fatal(err)
	}
	if size <= dev.BytesWritten() {
		t.Fatalf("raw file %d bytes not larger than payload %d (no framing overhead?)", size, dev.BytesWritten())
	}
}

func TestEdgeScannerReadsRawFilesUnchanged(t *testing.T) {
	vol := storage.NewMem()
	var b []byte
	for i := 0; i < 10; i++ {
		var rec [graph.EdgeBytes]byte
		graph.PutEdge(rec[:], graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1)})
		b = append(b, rec[:]...)
	}
	if err := storage.WriteAll(vol, "e", b); err != nil {
		t.Fatal(err)
	}
	sc, err := NewEdgeScanner(vol, "e", Timing{}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	n := 0
	for {
		e, ok, err := sc.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if e.Src != graph.VertexID(n) || e.Dst != graph.VertexID(n+1) {
			t.Fatalf("edge %d = %v", n, e)
		}
		n++
	}
	if n != 10 {
		t.Fatalf("decoded %d raw edges, want 10", n)
	}
}

func TestScannerSurfacesCorruptionAsErrCorrupted(t *testing.T) {
	vol := storage.NewMem()
	w, err := NewUpdateWriter(vol, "u", Timing{}, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := w.Append(graph.Update{Dst: graph.VertexID(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := storage.ReadAll(vol, "u")
	if err != nil {
		t.Fatal(err)
	}
	flip := make([]byte, len(raw))
	copy(flip, raw)
	flip[len(flip)/2] ^= 0x01
	if err := storage.WriteAll(vol, "u", flip); err != nil {
		t.Fatal(err)
	}
	sc, err := NewUpdateScanner(vol, "u", Timing{}, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	for {
		_, ok, err := sc.Next()
		if err != nil {
			if !errors.Is(err, errs.ErrCorrupted) {
				t.Fatalf("corruption surfaced as %v, want ErrCorrupted", err)
			}
			return
		}
		if !ok {
			t.Fatal("bit-flipped update file scanned to EOF without error")
		}
	}
}

func TestScannerDetectsTruncatedFramedFile(t *testing.T) {
	vol := storage.NewMem()
	enc := graph.FrameAll(bytes.Repeat([]byte{1}, 256))
	if err := storage.WriteAll(vol, "u", enc[:len(enc)-5]); err != nil {
		t.Fatal(err)
	}
	sc, err := NewUpdateScanner(vol, "u", Timing{}, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	for {
		_, ok, err := sc.Next()
		if err != nil {
			if !errors.Is(err, errs.ErrCorrupted) {
				t.Fatalf("truncation surfaced as %v", err)
			}
			return
		}
		if !ok {
			t.Fatal("truncated framed file scanned to EOF without error")
		}
	}
}

func TestStayFileIsFramedAndEmptyStayDecodes(t *testing.T) {
	vol := storage.NewMem()
	sw := NewStayWriter(vol, 64, 2)
	defer sw.Shutdown()
	f, err := sw.Begin("s", Timing{})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Use(); err != nil {
		t.Fatal(err)
	}
	raw, err := storage.ReadAll(vol, "s")
	if err != nil {
		t.Fatal(err)
	}
	payload, err := graph.DeframeAll(raw)
	if err != nil {
		t.Fatalf("empty stay file not a valid framed stream: %v", err)
	}
	if len(payload) != 0 {
		t.Fatalf("empty stay file decoded %d payload bytes", len(payload))
	}
	// Adopted as an edge input, it must scan as zero edges.
	sc, err := NewEdgeScanner(vol, "s", Timing{}, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if _, ok, err := sc.Next(); ok || err != nil {
		t.Fatalf("empty framed stay file: ok=%v err=%v", ok, err)
	}
}
