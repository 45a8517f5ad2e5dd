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

// deltaReader decodes an FBD1 payload stream (delta blocks, whole blocks
// to a frame, each frame CRC-verified by the frame reader underneath) into
// fixed-width records. Size reports the raw file size, like framedReader,
// so read-ahead stays deterministic in compressed space.
type deltaReader struct {
	inner storage.Reader
	src   *graph.FrameReader // deframed compressed payload
	bufs  *BufPool
	frame []byte // the current frame's blocks not yet decoded
	out   []byte // a decoded block not yet delivered
	opos  int
	taken int64 // compressed payload bytes decoded so far
	hint  graph.RunHint
}

// deltaBlockBytes is the largest decoded block.
const deltaBlockBytes = graph.DeltaBlockMaxEdges * graph.EdgeBytes

func newDeltaReader(inner storage.Reader, src *graph.FrameReader, bufs *BufPool) *deltaReader {
	return &deltaReader{inner: inner, src: src, bufs: bufs}
}

// Read decodes a block straight into a p that holds the largest one, else
// through a block buffer from the run's free-list, kept until Close.
func (d *deltaReader) Read(p []byte) (int, error) {
	for d.opos == len(d.out) {
		if len(d.frame) == 0 {
			var err error
			if d.frame, err = d.src.Next(); err != nil {
				return 0, err
			}
			continue
		}
		dst, direct := p[:0], len(p) >= deltaBlockBytes
		if !direct {
			if d.out == nil {
				d.out = d.bufs.Get(deltaBlockBytes)
			}
			dst = d.out[:0]
		}
		got, n, err := graph.DecodeDeltaBlock(dst, d.frame, d.hint)
		if err != nil {
			return 0, err
		}
		if d.frame, d.taken = d.frame[n:], d.taken+int64(n); direct {
			return len(got), nil
		}
		d.out, d.opos = got, 0
	}
	n := copy(p, d.out[d.opos:])
	d.opos += n
	return n, nil
}

func (d *deltaReader) Size() int64        { return d.inner.Size() }
func (d *deltaReader) DeviceBytes() int64 { return d.taken }

// Close returns the block buffer and the frame payload buffer to the
// run's free-list. The scanner above never reads a closed reader.
func (d *deltaReader) Close() error {
	d.bufs.Put(d.out)
	d.frame, d.out = nil, nil
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
