package stream

import (
	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
)

// This file adapts the delta edge codec (internal/graph FBD1 blocks) to
// the stream layer. The split in the cost model is the point:
//
//   - Device time and bytes are charged on *compressed* bytes — that is
//     what moves over the simulated disk.
//   - The decode/encode pass is charged on *decoded* bytes through
//     Timing.MemBW (the disksim MemBandwidth model), so the sim stays
//     honest about where the codec shifts cost: from the device lane to
//     a serial memory pass.
//
// Layering matches framed.go: retry wrapper below, frame codec above
// it, delta block codec above that; a transient fault retried mid-frame
// re-issues the failed byte range without desynchronizing block
// structure, and CRC damage in a frame surfaces as errs.ErrCorrupted
// before the block decoder ever sees the payload.

// deviceByter is implemented by readers/writers whose on-device byte
// count differs from the record bytes passing through them (the delta
// codec). The scanner and writer charge the device with these bytes
// and charge Timing.MemBW with the record bytes.
type deviceByter interface {
	DeviceBytes() int64
}

// deltaReader reads an FBD1 payload stream (delta blocks, whole blocks to
// a frame, each frame CRC-verified underneath) into its scanner's buffer
// a window at a time, undecoded: the blocks holding the next buffer's
// worth of records, counted from their headers (refill, not Read). Size is
// the file's, like framedReader's, so read-ahead stays deterministic.
type deltaReader struct {
	storage.Reader
	src   *graph.FrameReader // deframed compressed payload
	bufs  *BufPool
	recs  int    // the records of a window: a buffer's worth
	frame []byte // the current frame's blocks not yet in a window
	// at is the window's block holding its next record, after into others.
	at, into int
	taken    int64 // compressed payload bytes the windows took so far
}

func newDeltaReader(inner storage.Reader, src *graph.FrameReader, bufs *BufPool, recs int) *deltaReader {
	return &deltaReader{Reader: inner, src: src, bufs: bufs, recs: recs}
}

// refill moves the window in *win on: the block the last one ended inside
// leads, and blocks follow until it holds d.recs records (io.EOF: fewer),
// in a buffer from the run's free-list twice the size if they outgrow it.
func (d *deltaReader) refill(win *[]byte) (int, error) {
	b, end, n := *win, 0, 0
	if d.into > 0 {
		count, total, _ := graph.DeltaBlockLen(b[d.at:])
		end, n = copy(b, b[d.at:d.at+total]), count-d.into
	}
	d.at = 0
	for n < d.recs {
		if len(d.frame) == 0 {
			var err error
			if d.frame, err = d.src.Next(); err != nil {
				return n, err
			}
			continue
		}
		count, total, err := graph.DeltaBlockLen(d.frame)
		if err != nil {
			return 0, err
		}
		if end+total > len(b) {
			grown := d.bufs.Get(max(2*len(b), end+total))
			copy(grown, b[:end])
			d.bufs.Put(b)
			b, *win = grown, grown
		}
		end += copy(b[end:], d.frame[:total])
		d.frame, d.taken, n = d.frame[total:], d.taken+int64(total), n+count
	}
	return d.recs, nil
}

// take returns the blocks of win the next k records lie in, and the
// records of the first before them.
func (d *deltaReader) take(win []byte, k int) ([]byte, int) {
	start, skip, end := d.at, d.into, d.at
	for k > 0 {
		count, total, _ := graph.DeltaBlockLen(win[d.at:])
		end = d.at + total
		if left := count - d.into; k < left {
			d.into += k
			break
		}
		k -= count - d.into
		d.at, d.into = end, 0
	}
	return win[start:end], skip
}

func (d *deltaReader) DeviceBytes() int64 { return d.taken }

// Close returns the frame payload buffer to the run's free-list. The
// scanner above never reads a closed reader.
func (d *deltaReader) Close() error {
	d.frame = nil
	d.src.Release()
	return d.Reader.Close()
}

// deltaWriter is a storage.Writer that delta-encodes each Write (one
// writer flush, whole records) into blocks and emits them as one FBD1
// frame. Deltas reset per flush, so the output decodes identically no
// matter how the producer chunked its appends.
type deltaWriter struct {
	inner storage.Writer
	fw    *graph.FrameWriter
	bufs  *BufPool
	// enc is the encode target, bufSize bytes from bufs: a flush of
	// bufSize raw bytes encodes to less on every graph seen here, and an
	// encoding that does not fit spills into a one-off allocation.
	enc []byte
	dev int64
}

func newDeltaWriter(w storage.Writer, bufs *BufPool, bufSize int) *deltaWriter {
	return &deltaWriter{inner: w, fw: graph.NewFrameWriterMagic(w, graph.FrameMagicDelta),
		bufs: bufs, enc: bufs.Get(bufSize)}
}

func (w *deltaWriter) Write(p []byte) (int, error) {
	enc, err := graph.AppendDeltaBlocks(w.enc[:0], p)
	if err != nil {
		return 0, err
	}
	if _, err := w.fw.Write(enc); err != nil {
		return 0, err
	}
	w.dev += int64(len(enc))
	return len(p), nil
}

func (w *deltaWriter) Close() error {
	w.release()
	if err := w.fw.Finish(); err != nil {
		w.inner.Abort()
		return err
	}
	return w.inner.Close()
}

func (w *deltaWriter) Abort() error {
	w.release()
	return w.inner.Abort()
}

func (w *deltaWriter) release() {
	w.bufs.Put(w.enc)
	w.enc = nil
}

func (w *deltaWriter) DeviceBytes() int64 { return w.dev }

// NewCodecEdgeWriter buffers graph.Edge records into a file under the
// given codec: raw fixed-width records for CodecFixed (NewEdgeWriter),
// FBD1 delta blocks for CodecDelta. Delta flushes charge the device
// with encoded bytes and Timing.MemBW with the raw record bytes.
func NewCodecEdgeWriter(vol storage.Volume, name string, timing Timing, bufSize int, codec graph.Codec) (*Writer[graph.Edge], error) {
	if codec != graph.CodecDelta {
		return NewEdgeWriter(vol, name, timing, bufSize)
	}
	w, err := createRetrying(vol, name, timing.Retry)
	if err != nil {
		return nil, err
	}
	bufSize = recordBufSize(bufSize, graph.EdgeBytes)
	return newWriterOver(newDeltaWriter(w, timing.Bufs, bufSize), timing, bufSize, graph.EdgeBytes, graph.PutEdge, encodeEdges), nil
}

// NewCodecFramedEdgeWriter is NewFramedEdgeWriter under a codec: the
// checksummed FBC1 container for CodecFixed, FBD1 delta blocks (which
// are always framed) for CodecDelta. Used for the files that must
// fail-stop on corruption — reverse partitions and reverse stay files.
func NewCodecFramedEdgeWriter(vol storage.Volume, name string, timing Timing, bufSize int, codec graph.Codec) (*Writer[graph.Edge], error) {
	if codec != graph.CodecDelta {
		return NewFramedEdgeWriter(vol, name, timing, bufSize)
	}
	return NewCodecEdgeWriter(vol, name, timing, bufSize, codec)
}
