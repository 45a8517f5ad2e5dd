package stream

import (
	"fmt"
	"io"

	"fastbfs/internal/errs"
	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
)

// This file adapts the delta edge codec (internal/graph FBD1 blocks) to
// the stream layer. The split in the cost model is the point:
//
//   - Device time is charged on *compressed* bytes — that is what moves
//     over the simulated disk, and what BytesRead/BytesWritten report.
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

// deltaStageSize is the compressed staging buffer: comfortably larger
// than the largest possible block span (MaxDeltaBlockBody plus its
// varint header).
const deltaStageSize = 128 << 10

// deltaReader decodes an FBD1 payload stream (delta blocks, already
// deframed and CRC-verified by the frame reader underneath) into
// fixed-width records. Size reports the raw file size, like
// framedReader, so read-ahead stays deterministic in compressed space.
type deltaReader struct {
	inner storage.Reader
	src   *graph.FrameReader // deframed compressed payload
	bufs  *BufPool
	cbuf  []byte // compressed staging
	cpos  int
	cfill int
	out   []byte // decoded block not yet delivered
	opos  int
	taken int64 // compressed payload bytes decoded so far
	eof   bool  // src exhausted
}

// deltaBlockBytes is the largest decoded block, so the decode target
// never grows out of its pooled buffer.
const deltaBlockBytes = graph.DeltaBlockMaxEdges * graph.EdgeBytes

func newDeltaReader(inner storage.Reader, src *graph.FrameReader, bufs *BufPool) *deltaReader {
	return &deltaReader{inner: inner, src: src, bufs: bufs,
		cbuf: bufs.Get(deltaStageSize), out: bufs.Get(deltaBlockBytes)[:0]}
}

func (d *deltaReader) Read(p []byte) (int, error) {
	for {
		if d.opos < len(d.out) {
			n := copy(p, d.out[d.opos:])
			d.opos += n
			return n, nil
		}
		span, ok, err := graph.DeltaBlockSpan(d.cbuf[d.cpos:d.cfill])
		if err != nil {
			return 0, err
		}
		if ok {
			d.out, _, err = graph.DecodeDeltaBlock(d.out[:0], d.cbuf[d.cpos:d.cfill])
			if err != nil {
				return 0, err
			}
			d.cpos += span
			d.taken += int64(span)
			d.opos = 0
			continue
		}
		if d.eof {
			if d.cfill == d.cpos {
				return 0, io.EOF
			}
			return 0, fmt.Errorf("stream: %w: delta stream truncated mid-block (%d bytes)", errs.ErrCorrupted, d.cfill-d.cpos)
		}
		copy(d.cbuf, d.cbuf[d.cpos:d.cfill])
		d.cfill -= d.cpos
		d.cpos = 0
		n, err := d.src.Read(d.cbuf[d.cfill:])
		d.cfill += n
		if err == io.EOF {
			d.eof = true
		} else if err != nil {
			return 0, err
		}
	}
}

func (d *deltaReader) Size() int64        { return d.inner.Size() }
func (d *deltaReader) DeviceBytes() int64 { return d.taken }

// Close returns the stage, the decode target and the frame payload
// buffer to the run's free-list. The scanner above never reads a closed
// reader.
func (d *deltaReader) Close() error {
	d.bufs.Put(d.cbuf)
	d.bufs.Put(d.out)
	d.cbuf, d.out = nil, nil
	d.src.Release()
	return d.inner.Close()
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
