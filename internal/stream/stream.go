// Package stream implements the buffered sequential streams every engine
// in this repository is built from, mirroring the FastBFS prototype's
// stream machinery (§III): edge/update scanners that read a file in the
// granularity of a fixed-size buffer, buffered record writers, the
// destination-partition update shuffler, and the asynchronous stay-list
// writer with its dedicated thread and private edge buffers.
//
// Every stream moves real bytes through a storage.Volume and, when given
// a disksim clock and device, charges virtual I/O time per buffer-sized
// operation — one modelled seek plus a sequential transfer, which is why
// buffer size matters, exactly as in the paper.
package stream

import (
	"fmt"
	"io"

	"fastbfs/internal/disksim"
	"fastbfs/internal/errs"
	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
)

// DefaultBufSize is the default stream buffer size. 1 MiB amortizes the
// modelled seek to under 10% of the transfer time on the HDD preset.
const DefaultBufSize = 1 << 20

// Timing couples a virtual clock with the device a stream lives on.
// A zero Timing (nil Clock) disables time accounting — used in real-disk
// mode where the wall clock measures itself.
type Timing struct {
	Clock  *disksim.Clock
	Device *disksim.Device
	// Retry, when non-nil, makes every stream built with this Timing
	// retry transient I/O faults with bounded backoff (wall-clock
	// only — the virtual clock never observes retries).
	Retry *Retrier
	// MemBW is the memory bandwidth (bytes/s) charged for codec
	// encode/decode passes. Zero disables the charge (fixed-codec
	// streams never pay it).
	MemBW float64
	// Bufs is the owning run's buffer free-list: every stream built with
	// this Timing takes its buffers there at open and returns them at
	// Close/Abort. Nil (the zero Timing) allocates per stream.
	Bufs *BufPool
}

// Read charges a synchronous n-byte read from stream sid: the clock stalls
// until the device has done it. A no-op without a clock.
func (t Timing) Read(n int64, sid disksim.StreamID) {
	if t.Clock != nil {
		t.Clock.Read(t.Device, n, sid)
	}
}

// WriteSync charges a synchronous n-byte write from stream sid, like Read.
func (t Timing) WriteSync(n int64, sid disksim.StreamID) {
	if t.Clock != nil {
		t.Clock.WriteSync(t.Device, n, sid)
	}
}

// memPass charges one serial memory pass over n bytes — the codec's
// decode (scanner) or encode (writer) cost under the MemBandwidth
// model.
func (t Timing) memPass(n int64) {
	if t.Clock != nil && t.MemBW > 0 && n > 0 {
		t.Clock.ComputeSerial(float64(n) / t.MemBW)
	}
}

// Scanner streams fixed-size records of type T from a file, optionally
// with read-ahead (see Prefetch).
type Scanner[T any] struct {
	r       storage.Reader
	timing  Timing
	sid     disksim.StreamID
	buf     []byte
	pos     int
	fill    int
	recSize int
	// span decodes a run of records, all the buffer holds or the caller
	// takes: NextChunk's inner loop, one call a refill instead of one a
	// record.
	span func(dst []T, src []byte)
	// blocks, for a delta file, keeps a window of blocks in buf, whose
	// records pos and fill count (deltaReader.refill).
	blocks *deltaReader
	eof    bool
	read   int64
	// charged marks a reader that charges the device itself, range by
	// range (NewRangeScanner).
	charged bool

	// Read-ahead state: issued ops not yet consumed (with their sizes) and
	// how many bytes of the file they cover. into is the device bytes
	// consumed from the head op, and started says a refill has waited for it.
	pending  []*disksim.AsyncOp
	pendingN []int64
	issued   int64
	into     int64
	started  bool
	depth    int
	closed   bool

	// devSeen is the cumulative device-byte count observed from a
	// decoding reader (deviceByter); device charges use the per-refill
	// delta instead of the decoded record bytes.
	devSeen int64
}

// NewScanner opens name on vol and streams its records. bufSize is
// rounded up to hold at least one record.
func NewScanner[T any](vol storage.Volume, name string, timing Timing, bufSize, recSize int, decode func([]byte) T) (*Scanner[T], error) {
	r, err := openRetrying(vol, name, timing.Retry)
	if err != nil {
		return nil, err
	}
	return newScannerOver(r, timing, bufSize, recSize, func(dst []T, src []byte) {
		for i := range dst {
			dst[i] = decode(src[i*recSize:])
		}
	}), nil
}

// recordBufSize rounds bufSize to a whole number of records (at least
// one), so refills and flushes never split a record.
func recordBufSize(bufSize, recSize int) int {
	if bufSize < recSize {
		bufSize = recSize
	}
	return bufSize - bufSize%recSize
}

// newScannerOver builds a Scanner on an already-opened reader.
func newScannerOver[T any](r storage.Reader, timing Timing, bufSize, recSize int, span func([]T, []byte)) *Scanner[T] {
	s := &Scanner[T]{r: r, timing: timing, sid: disksim.NewStreamID(),
		buf: timing.Bufs.Get(recordBufSize(bufSize, recSize)), recSize: recSize, span: span}
	if rf, ok := r.(rangeFramed); ok {
		r = rf.Reader
	}
	s.blocks, _ = r.(*deltaReader)
	return s
}

// decodeEdges and decodeUpdates are the edge and update scanners' span
// decoders, and encodeEdges and encodeUpdates the writers' encoders: loops
// over one record type, which the compiler inlines the codec into.
func decodeEdges(dst []graph.Edge, src []byte) {
	for i := range dst {
		dst[i] = graph.GetEdge(src[i*graph.EdgeBytes:])
	}
}

func decodeUpdates(dst []graph.Update, src []byte) {
	for i := range dst {
		dst[i] = graph.GetUpdate(src[i*graph.UpdateBytes:])
	}
}

func encodeEdges(dst []byte, recs []graph.Edge) {
	for i, e := range recs {
		graph.PutEdge(dst[i*graph.EdgeBytes:], e)
	}
}

func encodeUpdates(dst []byte, recs []graph.Update) {
	for i, u := range recs {
		graph.PutUpdate(dst[i*graph.UpdateBytes:], u)
	}
}

// Next returns the next record. ok is false at end of stream.
func (s *Scanner[T]) Next() (rec T, ok bool, err error) {
	var one [1]T
	n, err := s.NextChunk(one[:])
	return one[0], n == 1, err
}

// NextChunk fills dst with up to len(dst) consecutive records and
// returns how many it decoded (0 at end of stream). It reads through the
// same buffer-refill path as Next, so the device sees the identical
// sequence of buffer-sized operations regardless of how records are
// consumed — the property the parallel scatter's chunk determinism rests
// on. Must be called from the goroutine that owns the scanner (refills
// charge the simulation clock).
func (s *Scanner[T]) NextChunk(dst []T) (int, error) {
	return s.records(dst, len(dst), func(b []byte, skip, at, k int) error {
		edges, direct := any(dst[at : at+k]).([]graph.Edge)
		if !direct { // a resume reads its level logs as updates: through bytes
			edges = make([]graph.Edge, k)
		}
		if _, err := graph.DecodeDeltaEdges(edges, b, skip, k, nil); err != nil || direct {
			return err
		}
		s.span(dst[at:at+k], graph.EdgesToBytes(edges))
		return nil
	})
}

// records reads up to max records, refilling as the buffer empties, and
// returns how many (0 at end of stream): fixed-width ones decoded into dst,
// a delta file's k at a time from record at, shown to blocks as the blocks
// they lie in and the records of the first before them.
func (s *Scanner[T]) records(dst []T, max int, blocks func(b []byte, skip, at, k int) error) (int, error) {
	n := 0
	for n < max {
		if s.pos+s.recSize > s.fill {
			if err := s.refill(); err != nil || s.pos+s.recSize > s.fill {
				return n, err
			}
		}
		k := min((s.fill-s.pos)/s.recSize, max-n)
		if s.blocks == nil {
			s.span(dst[n:n+k], s.buf[s.pos:s.pos+k*s.recSize])
		} else {
			b, skip := s.blocks.take(s.buf, k)
			if err := blocks(b, skip, n, k); err != nil {
				return n, err
			}
		}
		s.pos += k * s.recSize
		n += k
	}
	return n, nil
}

// cut reads up to max records into c at NextChunk's refills: decoded into
// dst if they are fixed-width, else as the delta blocks they lie in.
func (s *Scanner[T]) cut(c *rawChunk, dst []T, max int) (err error) {
	c.raw, c.skip, c.head = c.raw[:0], 0, 0
	c.n, err = s.records(dst, max, func(b []byte, skip, at, _ int) error {
		count, total, _ := graph.DeltaBlockLen(b)
		if at == 0 && skip > 0 {
			c.skip, c.head = skip, count-skip
		} else if skip > 0 { // c holds the block the last window ended in
			b = b[total:]
		}
		c.raw = append(c.raw, b...)
		return nil
	})
	c.head = min(c.head, c.n)
	return err
}

// Hints are a pool pass's run checks, cut by chunk on the engine thread in
// file order: Chunk gives the hint the next n records show their runs, the
// first head of them in a block begun in an earlier chunk, in old if it can
// (nil, or one it gave before); Merged gets it back before their shard
// merges (an error aborts the pass there).
type Hints interface {
	Chunk(old graph.RunHint, n, head int) graph.RunHint
	Merged(graph.RunHint) error
}

// rawChunk is n records as read: fixed-width ones, which cut decodes, or
// those of the delta blocks in raw from the skip'th on, head in the first.
type rawChunk struct {
	raw           []byte
	skip, n, head int
}

// decode decodes c's delta blocks into dst, where cut left fixed-width
// records, and returns how many it kept: those of the runs hint keeps.
func (c *rawChunk) decode(dst []graph.Edge, hint graph.RunHint) (int, error) {
	if len(c.raw) > 0 {
		return graph.DecodeDeltaEdges(dst, c.raw, c.skip, c.n, hint)
	}
	return c.n, showRuns(hint, dst[:c.n])
}

// showRuns shows hint (nil: none) the runs of edges: each stretch of one
// source, with its largest destination as the last.
func showRuns(hint graph.RunHint, edges []graph.Edge) error {
	for i := 0; hint != nil && i < len(edges); {
		src, last, j := edges[i].Src, edges[i].Dst, i+1
		for ; j < len(edges) && edges[j].Src == src; j++ {
			last = max(last, edges[j].Dst)
		}
		if _, err := hint.Keep(src, j-i); err != nil {
			return err
		}
		if err := hint.Last(last); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// Prefetch enables read-ahead with the given number of look-ahead
// buffers — the paper's "the number of edge buffers can be more than one
// for pre-fetching" (§III). The scanner immediately reserves up to
// `depth` buffer-sized reads on the device's foreground lane (keeping
// engine priority over background stay writes) without stalling the
// clock; each refill then waits only for its own chunk's completion, so
// the stream's transfer overlaps compute and I/O on other devices.
// Call before the first Next; a no-op without a simulation clock.
func (s *Scanner[T]) Prefetch(depth int) {
	if s.timing.Clock == nil || depth <= 0 || s.read > 0 {
		return
	}
	s.depth = depth
	s.topUp()
}

func (s *Scanner[T]) topUp() {
	size := s.r.Size()
	for len(s.pending) < s.depth && s.issued < size {
		n := int64(len(s.buf))
		if rem := size - s.issued; rem < n {
			n = rem
		}
		s.pending = append(s.pending, s.timing.Clock.ReadAsync(s.timing.Device, n, s.sid))
		s.pendingN = append(s.pendingN, n)
		s.issued += n
	}
}

func (s *Scanner[T]) refill() error {
	if s.closed {
		return fmt.Errorf("stream: read from closed scanner")
	}
	if s.eof {
		return nil
	}
	s.pos, s.fill = 0, 0 // a refill follows a buffer of whole records
	if s.blocks != nil {
		n, err := s.blocks.refill(&s.buf)
		if s.fill, s.eof = n*s.recSize, err == io.EOF; err != nil && !s.eof {
			return fmt.Errorf("stream: scanner read: %w", err)
		}
	}
	// Fill the whole buffer (or hit EOF): short reads — the sniffed
	// magic replay, frame boundaries — must not end a refill early, or
	// a partial record would be mistaken for end of stream.
	for s.blocks == nil && s.fill < len(s.buf) {
		n, err := s.r.Read(s.buf[s.fill:])
		s.fill += n
		if err == io.EOF {
			s.eof = true
			break
		}
		if err != nil {
			return fmt.Errorf("stream: scanner read: %w", err)
		}
	}
	// Device bytes for this refill: the record bytes for raw and framed
	// files, the compressed bytes a decoding reader actually consumed for
	// delta files (the decoded bytes are then charged as a memory pass).
	var dev int64
	if s.fill > 0 {
		dev = int64(s.fill)
		if db, ok := s.r.(deviceByter); ok {
			s.timing.memPass(int64(s.fill))
			dev = db.DeviceBytes() - s.devSeen
			s.devSeen += dev
		}
		s.read += dev
	}
	if s.depth > 0 && s.timing.Clock != nil {
		s.consume(dev) // an empty refill is the end of the file: see consume
	} else if s.fill > 0 && !s.charged {
		s.timing.Read(dev, s.sid)
	}
	return nil
}

// consume books a read-ahead refill's dev device bytes and waits for every
// op they came from, the one they only start included, then tops the
// read-ahead up. Ops are sized in file bytes, and a framed or delta file's
// device bytes fall short of them by its framing, so the refill that
// reaches the end of the file waits for every op left.
func (s *Scanner[T]) consume(dev int64) {
	c := s.timing.Clock
	s.timing.Device.BookRead(dev)
	s.into += dev
	for len(s.pending) > 0 && (s.into > 0 || s.eof) {
		if !s.started {
			c.WaitUntil(c.BgCompletion(s.pending[0]))
			s.started = true
		}
		if s.into < s.pendingN[0] && !s.eof {
			break
		}
		s.into -= s.pendingN[0]
		s.pending, s.pendingN, s.started = s.pending[1:], s.pendingN[1:], false
	}
	s.topUp()
}

// BytesRead reports the payload bytes consumed from the file so far —
// the device's view, so compressed bytes for delta files.
func (s *Scanner[T]) BytesRead() int64 { return s.read }

// Close releases the underlying file and returns the buffer to the
// run's free-list, cancelling the read-ahead no refill started: device
// time the scan never used, booked as no bytes. Reading a closed scanner
// is an error.
func (s *Scanner[T]) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if s.started {
		s.pending = s.pending[1:]
	}
	for _, op := range s.pending {
		s.timing.Clock.CancelAsync(op)
	}
	s.pending, s.pendingN = nil, nil
	s.timing.Bufs.Put(s.buf)
	s.buf, s.pos, s.fill = nil, 0, 0
	return s.r.Close()
}

// NewEdgeScanner streams graph.Edge records from a file. The reader
// sniffs the frame magic: adopted stay files (framed, checksummed)
// and raw edge partitions stream through the same scanner, and
// integrity violations in framed inputs surface as errs.ErrCorrupted.
func NewEdgeScanner(vol storage.Volume, name string, timing Timing, bufSize int) (*Scanner[graph.Edge], error) {
	r, err := openSniffed(vol, name, timing, recordBufSize(bufSize, graph.EdgeBytes))
	if err != nil {
		return nil, err
	}
	return newScannerOver(r, timing, bufSize, graph.EdgeBytes, decodeEdges), nil
}

// NewUpdateScanner streams graph.Update records from a file, sniffing
// the frame magic like NewEdgeScanner (update files are framed).
func NewUpdateScanner(vol storage.Volume, name string, timing Timing, bufSize int) (*Scanner[graph.Update], error) {
	r, err := openSniffed(vol, name, timing, recordBufSize(bufSize, graph.UpdateBytes))
	if err != nil {
		return nil, err
	}
	return newScannerOver(r, timing, bufSize, graph.UpdateBytes, decodeUpdates), nil
}

// RangeReader reads a file at offsets through one open, each read retried
// like every stream's; its callers charge the device.
type RangeReader interface {
	io.ReaderAt
	io.Closer
}

// OpenRange opens name on vol for ranged reads; rt may be nil.
func OpenRange(vol storage.Volume, name string, rt *Retrier) (RangeReader, error) {
	r, err := openRetrying(vol, name, rt)
	if err != nil {
		return nil, err
	}
	if rr, ok := r.(RangeReader); ok {
		return rr, nil
	}
	r.Close()
	return nil, fmt.Errorf("stream: %s: %T reads no ranges", name, r)
}

// Range is Len bytes of a file at offset Off.
type Range struct{ Off, Len int64 }

// NewRangeScanner streams the edges in ranges of an edge file, in order,
// read into the scanner's pooled buffer: raw records when magic is 0, or a
// framed file's whole frames, CRC-checked — and, under graph.FrameMagicDelta,
// decoded. Each range costs the device a positioning and its transfer;
// BytesRead counts the ranges' bytes.
func NewRangeScanner(vol storage.Volume, name string, timing Timing, bufSize int, ranges []Range, magic uint32) (*Scanner[graph.Edge], error) {
	rr, err := OpenRange(vol, name, timing.Retry)
	if err != nil {
		return nil, err
	}
	src := &rangeSource{RangeReader: rr, timing: timing, ranges: ranges}
	var r storage.Reader = src
	if magic != 0 {
		src.tail = 8 // a terminator frame closes the ranges' frames
		fr := graph.NewFrameReaderBufs(src, timing.Bufs, recordBufSize(bufSize, graph.EdgeBytes))
		if magic == graph.FrameMagicDelta {
			r = rangeFramed{newDeltaReader(src, fr, timing.Bufs, recordBufSize(bufSize, graph.EdgeBytes)/graph.EdgeBytes), src}
		} else {
			r = rangeFramed{&framedReader{inner: src, r: fr, fr: fr}, src}
		}
	}
	sc := newScannerOver(r, timing, bufSize, graph.EdgeBytes, decodeEdges)
	sc.charged = true
	return sc, nil
}

// rangeSource is the bytes of a file's ranges, then tail zero bytes; each
// range is charged as it is read, under a stream ID of its own.
type rangeSource struct {
	RangeReader
	timing    Timing
	ranges    []Range
	off, read int64 // off: bytes of ranges[0] read
	sid       disksim.StreamID
	tail      int
}

func (s *rangeSource) Size() int64 { return 0 } // nothing reads ahead of it

func (s *rangeSource) Read(p []byte) (int, error) {
	for len(s.ranges) > 0 && s.off == s.ranges[0].Len {
		s.ranges, s.off, s.sid = s.ranges[1:], 0, 0
	}
	if len(s.ranges) == 0 {
		n := min(len(p), s.tail)
		if n == 0 {
			return 0, io.EOF
		}
		clear(p[:n])
		s.tail -= n
		return n, nil
	}
	n := min(int64(len(p)), s.ranges[0].Len-s.off)
	if m, err := s.ReadAt(p[:n], s.ranges[0].Off+s.off); int64(m) < n {
		if err == nil || err == io.EOF {
			err = fmt.Errorf("stream: %w: the file ends inside a range", errs.ErrCorrupted)
		}
		return 0, err
	}
	if s.sid == 0 {
		s.sid = disksim.NewStreamID()
	}
	s.timing.Read(n, s.sid)
	s.off, s.read = s.off+n, s.read+n
	return int(n), nil
}

// rangeFramed deframes a rangeSource; its device bytes are the ranges'.
type rangeFramed struct {
	storage.Reader
	src *rangeSource
}

func (d rangeFramed) DeviceBytes() int64 { return d.src.read }

// Writer buffers fixed-size records of type T into a file, flushing (and
// charging a device write) whenever the buffer fills. By default flushes
// are synchronous (the clock stalls); after SetAsync they are buffered
// write-behind — the time-model analogue of writing through the OS page
// cache — and the caller must observe LastOp's completion before any
// reader depends on the file (engines do this through
// xstream.Runtime.AwaitFile).
type Writer[T any] struct {
	w       storage.Writer
	timing  Timing
	sid     disksim.StreamID
	buf     []byte
	fill    int
	recSize int
	encode  func([]byte, T)
	// span is encode over a run of records (see Scanner.span).
	span   func(dst []byte, recs []T)
	count  int64
	closed bool
	async  bool
	lastOp *disksim.AsyncOp
	// devSeen mirrors Scanner.devSeen for encoding writers: cumulative
	// device bytes observed from a deviceByter sink.
	devSeen int64
}

// NewWriter creates name on vol and buffers records into it.
func NewWriter[T any](vol storage.Volume, name string, timing Timing, bufSize, recSize int, encode func([]byte, T)) (*Writer[T], error) {
	w, err := createRetrying(vol, name, timing.Retry)
	if err != nil {
		return nil, err
	}
	return newWriterOver(w, timing, bufSize, recSize, encode, func(dst []byte, recs []T) {
		for i, rec := range recs {
			encode(dst[i*recSize:], rec)
		}
	}), nil
}

// newWriterOver builds a Writer on an already-created storage writer.
func newWriterOver[T any](w storage.Writer, timing Timing, bufSize, recSize int, encode func([]byte, T), span func([]byte, []T)) *Writer[T] {
	return &Writer[T]{w: w, timing: timing, sid: disksim.NewStreamID(),
		buf: timing.Bufs.Get(recordBufSize(bufSize, recSize)), recSize: recSize, encode: encode, span: span}
}

// Append adds one record, flushing if the buffer is full.
func (w *Writer[T]) Append(rec T) error {
	if w.closed {
		return fmt.Errorf("stream: append to closed writer")
	}
	if w.fill+w.recSize > len(w.buf) {
		if err := w.Flush(); err != nil {
			return err
		}
	}
	w.encode(w.buf[w.fill:], rec)
	w.fill += w.recSize
	w.count++
	return nil
}

// AppendChunk adds recs in order — Append over a slice, flushing at
// exactly the records Append would.
func (w *Writer[T]) AppendChunk(recs []T) error {
	if w.closed {
		return fmt.Errorf("stream: append to closed writer")
	}
	for len(recs) > 0 {
		if w.fill+w.recSize > len(w.buf) {
			if err := w.Flush(); err != nil {
				return err
			}
		}
		n := min((len(w.buf)-w.fill)/w.recSize, len(recs))
		w.span(w.buf[w.fill:], recs[:n])
		w.fill += n * w.recSize
		w.count += int64(n)
		recs = recs[n:]
	}
	return nil
}

// SetAsync switches flushes to write-behind (see the type comment).
func (w *Writer[T]) SetAsync() { w.async = true }

// LastOp returns the device handle of the latest write-behind flush, or
// nil when none happened (synchronous mode, no clock, or nothing
// flushed). Its completion is the file's read-readiness barrier.
func (w *Writer[T]) LastOp() *disksim.AsyncOp { return w.lastOp }

// Flush writes buffered records to the file, charging a device write.
// An encoding sink (delta codec) is charged with its encoded bytes on
// the device and the raw record bytes as a memory pass.
func (w *Writer[T]) Flush() error {
	if w.fill == 0 {
		return nil
	}
	if _, err := w.w.Write(w.buf[:w.fill]); err != nil {
		return fmt.Errorf("stream: writer flush: %w", err)
	}
	dev := int64(w.fill)
	if db, ok := w.w.(deviceByter); ok {
		w.timing.memPass(int64(w.fill))
		dev = db.DeviceBytes() - w.devSeen
		w.devSeen += dev
	}
	if w.async && w.timing.Clock != nil {
		w.lastOp = w.timing.Clock.WriteAsync(w.timing.Device, dev, w.sid)
	} else {
		w.timing.WriteSync(dev, w.sid)
	}
	w.fill = 0
	return nil
}

// Count returns the number of records appended so far.
func (w *Writer[T]) Count() int64 { return w.count }

// Close flushes and publishes the file, and returns the buffer to the
// run's free-list.
func (w *Writer[T]) Close() error {
	if w.closed {
		return nil
	}
	err := w.Flush()
	w.release()
	if err != nil {
		w.w.Abort()
		return err
	}
	return w.w.Close()
}

// Abort discards the file and returns the buffer.
func (w *Writer[T]) Abort() error {
	if w.closed {
		return nil
	}
	w.release()
	return w.w.Abort()
}

// release marks the writer closed and gives its buffer back; Append on
// a closed writer is an error, so the buffer is never touched again.
func (w *Writer[T]) release() {
	w.closed = true
	w.timing.Bufs.Put(w.buf)
	w.buf, w.fill = nil, 0
}

// NewEdgeWriter buffers graph.Edge records into a file.
func NewEdgeWriter(vol storage.Volume, name string, timing Timing, bufSize int) (*Writer[graph.Edge], error) {
	return NewWriter(vol, name, timing, bufSize, graph.EdgeBytes, graph.PutEdge)
}

// NewFramedEdgeWriter buffers graph.Edge records into a file written in
// the checksummed framed format (one frame per flush). Used for the
// reverse-edge partitions and reverse stay files, whose corruption must
// surface as errs.ErrCorrupted instead of wrong bottom-up parents.
func NewFramedEdgeWriter(vol storage.Volume, name string, timing Timing, bufSize int) (*Writer[graph.Edge], error) {
	w, err := createFramed(vol, name, timing.Retry)
	if err != nil {
		return nil, err
	}
	return newWriterOver(w, timing, bufSize, graph.EdgeBytes, graph.PutEdge, encodeEdges), nil
}

// NewUpdateWriter buffers graph.Update records into a file, written in
// the checksummed framed format (one frame per flush) so corruption is
// detected when the next iteration gathers it.
func NewUpdateWriter(vol storage.Volume, name string, timing Timing, bufSize int) (*Writer[graph.Update], error) {
	w, err := createFramed(vol, name, timing.Retry)
	if err != nil {
		return nil, err
	}
	return newWriterOver(w, timing, bufSize, graph.UpdateBytes, graph.PutUpdate, encodeUpdates), nil
}

// WriterSet is one Writer per partition, opened, accounted and closed as
// a unit — every partitioned output in this repository: X-Stream's edge
// split, the reverse split, the update shuffle (Shuffler), internal/algo's
// shuffle and GraphChi's shards. Routing stays with the caller, whose hot
// loop indexes W directly.
//
// A set publishes every file or leaves none: a failed open aborts the
// writers already opened, a failed Close aborts the ones still open and
// removes the files already published. Abort after Close does nothing, so
// a function holding a set defers it.
type WriterSet[T any] struct {
	W     []*Writer[T]
	Names []string // partition p's file name
	vol   storage.Volume
}

// OpenWriterSet opens n writers on vol: partition p's is open(nameFor(p)).
func OpenWriterSet[T any](vol storage.Volume, n int, nameFor func(p int) string, open func(name string) (*Writer[T], error)) (*WriterSet[T], error) {
	s := &WriterSet[T]{W: make([]*Writer[T], 0, n), Names: make([]string, n), vol: vol}
	for p := range s.Names {
		s.Names[p] = nameFor(p)
		w, err := open(s.Names[p])
		if err != nil {
			s.Abort()
			return nil, err
		}
		s.W = append(s.W, w)
	}
	return s, nil
}

// SetAsync switches every writer to write-behind.
func (s *WriterSet[T]) SetAsync() {
	for _, w := range s.W {
		w.SetAsync()
	}
}

// Counts returns the number of records appended to each partition.
func (s *WriterSet[T]) Counts() []int64 {
	c := make([]int64, len(s.W))
	for p, w := range s.W {
		c[p] = w.Count()
	}
	return c
}

// LastOps returns each writer's latest write-behind handle (nil entries
// where nothing flushed).
func (s *WriterSet[T]) LastOps() []*disksim.AsyncOp {
	ops := make([]*disksim.AsyncOp, len(s.W))
	for p, w := range s.W {
		ops[p] = w.LastOp()
	}
	return ops
}

// Close flushes and publishes every partition's file, in partition order.
func (s *WriterSet[T]) Close() error {
	for p, w := range s.W {
		if err := w.Close(); err != nil {
			s.Abort()
			for _, name := range s.Names[:p] {
				s.vol.Remove(name)
			}
			return err
		}
	}
	return nil
}

// Abort discards the file of every writer still open.
func (s *WriterSet[T]) Abort() {
	for _, w := range s.W {
		w.Abort()
	}
}

// Shuffler routes updates to per-destination-partition update files —
// the scatter phase's shuffle ("updates are shuffled by the destination
// vertices into different partitions", §III): a WriterSet of update
// writers plus the partitioning that routes into it.
type Shuffler struct {
	*WriterSet[graph.Update]
	pt *graph.Partitioning
}

// NewShuffler creates one update writer per partition. nameFor maps a
// partition index to its update file name.
func NewShuffler(vol storage.Volume, pt *graph.Partitioning, timing Timing, bufSize int, nameFor func(p int) string) (*Shuffler, error) {
	ws, err := OpenWriterSet(vol, pt.P(), nameFor, func(name string) (*Writer[graph.Update], error) {
		return NewUpdateWriter(vol, name, timing, bufSize)
	})
	if err != nil {
		return nil, err
	}
	return &Shuffler{WriterSet: ws, pt: pt}, nil
}

// Append routes one update to the partition owning its destination.
func (sh *Shuffler) Append(u graph.Update) error {
	return sh.W[sh.pt.Of(u.Dst)].Append(u)
}

// AppendTo appends a batch of updates already routed to partition p —
// the merge half of the sharded scatter: workers pre-route updates into
// per-partition shard slices and the engine thread folds each shard in
// chunk order, so every partition's update file carries its updates in
// global edge-scan order no matter how many workers produced them.
func (sh *Shuffler) AppendTo(p int, us []graph.Update) error {
	return sh.W[p].AppendChunk(us)
}

// P returns the number of destination partitions.
func (sh *Shuffler) P() int { return len(sh.W) }
