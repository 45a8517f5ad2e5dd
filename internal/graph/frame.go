package graph

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"fastbfs/internal/errs"
)

// This file implements the checksummed framed container used for update
// and stay files: a 4-byte magic followed by frames of
//
//	[4B payload length, LE][4B CRC32-C of payload, LE][payload]
//
// and terminated by a zero-length frame. The terminator is what makes
// truncation at a frame boundary detectable — a torn write that loses
// whole trailing frames still fails to produce the terminator, and a
// tear or bit flip inside a frame fails its CRC. Readers sniff the
// magic, so raw files (the dataset edge list, vertex files) pass
// through a frame-aware reader untouched; the engines never write a
// record file whose first edge could collide with the magic (it would
// need a source vertex id of ~826 million, far beyond CheckEdge's
// validated range on every dataset in this repository).

// FrameMagic is the little-endian uint32 spelling "FBC1" that opens
// every framed file.
const FrameMagic = uint32(0x31434246)

// frameHeaderBytes is the per-frame overhead (length + CRC).
const frameHeaderBytes = 8

// MaxFramePayload caps a single frame's payload. Frames are sized by
// the writer's flush buffer (≤ a few MiB); the cap exists so a
// corrupted length field cannot make a reader attempt a giant
// allocation.
const MaxFramePayload = 64 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// FrameWriter wraps an io.Writer with the framed format: every Write
// call becomes one checksummed frame. Close (via Finish) appends the
// terminator frame; it does not close the underlying writer.
type FrameWriter struct {
	w      io.Writer
	magic  uint32
	opened bool
	hdr    [frameHeaderBytes]byte
}

// NewFrameWriter returns a FrameWriter over w opening with FrameMagic.
// Nothing is written until the first Write or Finish.
func NewFrameWriter(w io.Writer) *FrameWriter { return &FrameWriter{w: w, magic: FrameMagic} }

// NewFrameWriterMagic returns a FrameWriter opening with an explicit
// magic — FrameMagicDelta for delta-block payloads.
func NewFrameWriterMagic(w io.Writer, magic uint32) *FrameWriter {
	return &FrameWriter{w: w, magic: magic}
}

func (fw *FrameWriter) writeMagic() error {
	if fw.opened {
		return nil
	}
	fw.opened = true
	var m [4]byte
	binary.LittleEndian.PutUint32(m[:], fw.magic)
	_, err := fw.w.Write(m[:])
	return err
}

// Write emits p as one frame. Empty writes are dropped (a zero-length
// frame is the terminator and may only be written by Finish).
func (fw *FrameWriter) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if len(p) > MaxFramePayload {
		return 0, fmt.Errorf("graph: frame payload %d exceeds cap %d", len(p), MaxFramePayload)
	}
	if err := fw.writeMagic(); err != nil {
		return 0, err
	}
	binary.LittleEndian.PutUint32(fw.hdr[0:4], uint32(len(p)))
	binary.LittleEndian.PutUint32(fw.hdr[4:8], crc32.Checksum(p, castagnoli))
	if _, err := fw.w.Write(fw.hdr[:]); err != nil {
		return 0, err
	}
	if _, err := fw.w.Write(p); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Finish writes the terminator frame (opening the file first if
// nothing was ever written, so an empty framed file is magic +
// terminator). It must be called exactly once, before the underlying
// writer is closed.
func (fw *FrameWriter) Finish() error {
	if err := fw.writeMagic(); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(fw.hdr[0:4], 0)
	binary.LittleEndian.PutUint32(fw.hdr[4:8], 0)
	_, err := fw.w.Write(fw.hdr[:])
	return err
}

// FrameReader reads a framed stream, verifying each frame's CRC and
// requiring the terminator before EOF. Any integrity violation —
// short header, payload cut mid-frame, CRC mismatch, missing
// terminator, trailing bytes after it — surfaces as an error wrapping
// errs.ErrCorrupted.
type FrameReader struct {
	r    io.Reader
	buf  []byte // current frame's unconsumed payload
	off  int
	done bool // terminator seen
	err  error

	// bufs, when non-nil, lends the payload buffer; hint is the size
	// asked for first (frames longer than it get an exact-size buffer).
	// limit, when set, caps a frame below MaxFramePayload.
	bufs        Buffers
	hint, limit int
}

// Buffers is a free-list a FrameReader borrows its payload buffer from
// and returns it to — stream.BufPool, declared here because this
// package sits below the stream layer.
type Buffers interface {
	// Get returns a buffer of exactly size bytes, contents arbitrary.
	Get(size int) []byte
	// Put takes back a buffer obtained from Get.
	Put(b []byte)
}

// NewFrameReader returns a FrameReader over r, which must be
// positioned after the magic (see SniffFrameReader for detection).
func NewFrameReader(r io.Reader) *FrameReader { return &FrameReader{r: r} }

// NewFrameReaderBufs is NewFrameReader with the payload buffer borrowed
// from bufs: sizeHint bytes at the first frame (the reading stream's own
// buffer size — writers emit one frame per flush, so frames are rarely
// longer), kept until Release. The caller must call Release when done.
func NewFrameReaderBufs(r io.Reader, bufs Buffers, sizeHint int) *FrameReader {
	return &FrameReader{r: r, bufs: bufs, hint: sizeHint}
}

// Release gives the payload buffer back to the free-list it came from.
// The reader must not be read again.
func (fr *FrameReader) Release() {
	if fr.bufs != nil {
		fr.bufs.Put(fr.buf)
	}
	fr.buf, fr.off = nil, 0
	if fr.err == nil {
		fr.err = fmt.Errorf("graph: read from released frame reader")
	}
}

// grow replaces the payload buffer with one of at least n bytes.
func (fr *FrameReader) grow(n int) {
	if fr.bufs == nil {
		fr.buf = make([]byte, n)
		return
	}
	fr.bufs.Put(fr.buf)
	fr.buf = fr.bufs.Get(max(n, fr.hint))
}

// SniffContainer reads up to 4 bytes from r and classifies the file:
// it returns FrameMagic or FrameMagicDelta for framed containers
// (prefix nil), or 0 with the consumed bytes for a raw file, so a raw
// reader can replay them.
func SniffContainer(r io.Reader) (magic uint32, prefix []byte, err error) {
	var m [4]byte
	n, err := io.ReadFull(r, m[:])
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return 0, m[:n], nil
	}
	if err != nil {
		return 0, m[:n], err
	}
	switch got := binary.LittleEndian.Uint32(m[:]); got {
	case FrameMagic, FrameMagicDelta:
		return got, nil, nil
	}
	return 0, m[:4], nil
}

func (fr *FrameReader) corrupt(format string, args ...any) error {
	fr.err = fmt.Errorf("graph: %w: "+format, append([]any{errs.ErrCorrupted}, args...)...)
	return fr.err
}

// nextFrame loads the next frame's payload into fr.buf.
func (fr *FrameReader) nextFrame() error {
	var hdr [frameHeaderBytes]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fr.corrupt("framed stream truncated before terminator")
		}
		return err
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if length == 0 {
		if sum != 0 {
			return fr.corrupt("terminator frame carries checksum %#x", sum)
		}
		// Terminator: nothing may follow it.
		var tail [1]byte
		if n, _ := fr.r.Read(tail[:]); n != 0 {
			return fr.corrupt("trailing bytes after terminator frame")
		}
		fr.done = true
		return io.EOF
	}
	if lim := cmp.Or(fr.limit, MaxFramePayload); uint64(length) > uint64(lim) {
		return fr.corrupt("frame length %d exceeds cap %d", length, lim)
	}
	if cap(fr.buf) < int(length) {
		fr.grow(int(length))
	}
	fr.buf = fr.buf[:length]
	if _, err := io.ReadFull(fr.r, fr.buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fr.corrupt("frame payload truncated (%d of %d bytes)", len(fr.buf), length)
		}
		return err
	}
	if got := crc32.Checksum(fr.buf, castagnoli); got != sum {
		return fr.corrupt("frame checksum mismatch (stored %#x, computed %#x)", sum, got)
	}
	fr.off = 0
	return nil
}

// Read returns payload bytes, crossing frame boundaries as needed.
func (fr *FrameReader) Read(p []byte) (int, error) {
	if fr.err != nil {
		return 0, fr.err
	}
	if fr.done {
		return 0, io.EOF
	}
	n := 0
	for n < len(p) {
		if fr.off >= len(fr.buf) {
			if err := fr.nextFrame(); err != nil {
				if n > 0 && err == io.EOF {
					return n, nil
				}
				return n, err
			}
		}
		c := copy(p[n:], fr.buf[fr.off:])
		fr.off += c
		n += c
	}
	return n, nil
}

// Next returns the next frame's whole payload, valid until the next read,
// or io.EOF once the terminator is read.
func (fr *FrameReader) Next() ([]byte, error) {
	if fr.err != nil || fr.done {
		return nil, cmp.Or(fr.err, io.EOF)
	}
	if err := fr.nextFrame(); err != nil {
		return nil, err
	}
	fr.off = len(fr.buf)
	return fr.buf, nil
}

// DeframeAll decodes an entire framed byte slice (magic included) back
// into its concatenated payload. It is the test- and tool-side helper
// for inspecting framed files. Both container magics are accepted; the
// payload of an FBD1 file is delta blocks, not records (see
// DecodeDeltaStream).
func DeframeAll(b []byte) ([]byte, error) {
	_, payload, err := DeframeAllMagic(b)
	return payload, err
}

// DeframeAllMagic is DeframeAll returning the container magic as well,
// so tools can report which codec a file carries.
func DeframeAllMagic(b []byte) (uint32, []byte, error) {
	if len(b) < 4 {
		return 0, nil, fmt.Errorf("graph: %w: not a framed stream (no magic)", errs.ErrCorrupted)
	}
	magic := binary.LittleEndian.Uint32(b[:4])
	if magic != FrameMagic && magic != FrameMagicDelta {
		return 0, nil, fmt.Errorf("graph: %w: not a framed stream (no magic)", errs.ErrCorrupted)
	}
	payload, err := io.ReadAll(NewFrameReader(bytes.NewReader(b[4:])))
	return magic, payload, err
}

// FrameAll encodes payload chunks into a complete framed byte slice
// (magic + one frame per chunk + terminator) — the inverse of
// DeframeAll for tests and tools.
func FrameAll(chunks ...[]byte) []byte { return FrameAllMagic(FrameMagic, chunks...) }

// FrameAllMagic is FrameAll under an explicit container magic.
func FrameAllMagic(magic uint32, chunks ...[]byte) []byte {
	var out writeBuf
	fw := NewFrameWriterMagic(&out, magic)
	for _, c := range chunks {
		if _, err := fw.Write(c); err != nil {
			panic(err) // writeBuf cannot fail; only the cap can, and callers are tests
		}
	}
	if err := fw.Finish(); err != nil {
		panic(err)
	}
	return out.b
}

type writeBuf struct{ b []byte }

func (w *writeBuf) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}
