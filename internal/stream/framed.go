package stream

import (
	"bytes"
	"io"

	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
)

// This file adapts the checksummed framed container (internal/graph's
// FrameWriter/FrameReader) to the storage.Writer/Reader shapes the
// stream layer composes. Update and stay files — the two file classes
// an iteration *regenerates* and the next iteration trusts — are
// written framed, so a torn stay write or a bit-flipped update file is
// detected at read time instead of silently corrupting the traversal.
// Edge and vertex files keep their raw formats; the edge-side readers
// sniff the magic, so adopted stay files (framed) and original dataset
// partitions (raw) stream through the same scanner.
//
// Layering order matters: the retry wrapper sits *below* the framer
// (retryWriter/retryReader wrap the storage file, the framer wraps
// them), so a transient fault retried mid-frame re-issues exactly the
// failed byte range and never desynchronizes the frame structure.
// Device charges stay in payload units — the scanner and writer charge
// their own buffers, and the framing overhead below them is invisible to
// the time model, so metrics are identical between framed and raw formats.

// framedWriter is a storage.Writer that emits one checksummed frame
// per Write and the terminator at Close.
type framedWriter struct {
	inner storage.Writer
	fw    *graph.FrameWriter
}

func newFramedWriter(w storage.Writer) *framedWriter {
	return &framedWriter{inner: w, fw: graph.NewFrameWriter(w)}
}

// newFramedWriterMagic is newFramedWriter under an explicit container
// magic — the sink for delta stay files, whose blocks are encoded on
// the engine thread and arrive here pre-compressed.
func newFramedWriterMagic(w storage.Writer, magic uint32) *framedWriter {
	return &framedWriter{inner: w, fw: graph.NewFrameWriterMagic(w, magic)}
}

func (w *framedWriter) Write(p []byte) (int, error) { return w.fw.Write(p) }

func (w *framedWriter) Close() error {
	if err := w.fw.Finish(); err != nil {
		w.inner.Abort()
		return err
	}
	return w.inner.Close()
}

func (w *framedWriter) Abort() error { return w.inner.Abort() }

// createFramed creates name as a framed file, with retries below the
// framer when rt is non-nil.
func createFramed(vol storage.Volume, name string, rt *Retrier) (storage.Writer, error) {
	w, err := createRetrying(vol, name, rt)
	if err != nil {
		return nil, err
	}
	return newFramedWriter(w), nil
}

// framedReader is a storage.Reader whose payload stream comes from r
// (a frame decoder, or a raw replay) while Close and Size delegate to
// the underlying file. Size deliberately reports the *raw* file size:
// the scanner's read-ahead sizes its look-ahead window from it, and
// raw size is a deterministic property of the file, so prefetch issues
// the same operation sequence no matter how records are consumed (the
// refill that reaches the end waits for the ops left; see consume).
type framedReader struct {
	inner storage.Reader
	r     io.Reader
	// fr is r when r is a frame decoder (nil for a raw replay); Close
	// returns its payload buffer to the run's free-list.
	fr *graph.FrameReader
}

func (f *framedReader) Read(p []byte) (int, error) { return f.r.Read(p) }
func (f *framedReader) Size() int64                { return f.inner.Size() }

func (f *framedReader) Close() error {
	if f.fr != nil {
		f.fr.Release()
	}
	return f.inner.Close()
}

// openSniffed opens name, detects the container magic, and returns a
// reader producing the record stream: deframed (CRC-verified) for FBC1
// files, deframed and block-decoded for FBD1 delta files,
// byte-for-byte for raw ones. The frame payload buffer (bufSize bytes,
// the reading scanner's own size) and the delta block buffer come from
// timing.Bufs and go back at Close.
func openSniffed(vol storage.Volume, name string, timing Timing, bufSize int) (storage.Reader, error) {
	r, err := openRetrying(vol, name, timing.Retry)
	if err != nil {
		return nil, err
	}
	magic, prefix, err := graph.SniffContainer(r)
	if err != nil {
		r.Close()
		return nil, err
	}
	switch magic {
	case graph.FrameMagic:
		fr := graph.NewFrameReaderBufs(r, timing.Bufs, bufSize)
		return &framedReader{inner: r, r: fr, fr: fr}, nil
	case graph.FrameMagicDelta:
		return newDeltaReader(r, graph.NewFrameReaderBufs(r, timing.Bufs, bufSize), timing.Bufs, bufSize/graph.EdgeBytes), nil
	}
	if len(prefix) == 0 {
		return r, nil
	}
	return &framedReader{inner: r, r: io.MultiReader(bytes.NewReader(prefix), r)}, nil
}
