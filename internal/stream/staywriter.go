package stream

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fastbfs/internal/disksim"
	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
)

// StayWriter is the FastBFS asynchronous stay-list writer: "FastBFS
// introduces a dedicated thread to manage the asynchronous stay list
// writing. ... The stay list writing thread owns several private edge
// buffers, thanks to which the stay list flushing would not be interfered
// by other I/O procedures." (§III)
//
// The engine thread appends live edges to a StayFile; full buffers are
// handed to the dedicated writer goroutine, which performs the actual
// storage writes. Virtual time for each buffer is reserved on the stay
// device at hand-off (disksim.Clock.WriteAsync), so the write overlaps
// computation and foreground I/O on the timeline exactly as the real
// background write would.
//
// The private buffers are a bounded set drawn from the run's BufPool
// (each StayFile's Timing.Bufs): at most bufCount+1 are with the writer
// goroutine — queued or being written — at any moment, which returns
// each one to the pool as soon as its write finished, failed or was
// skipped for a discarded file; with the one buffer the engine is
// filling, a StayWriter that has one file open at a time (every engine
// here) holds at most bufCount+2 buffers for its whole life. A buffer
// stays owned by the goroutine until storage's Write has returned — the
// retry wrapper may re-issue it.
//
// The engine blocks only when the private buffers are exhausted (the
// paper's condition 1) — modelled both for real (the slots semaphore)
// and in virtual time (the in-flight completion queue). Condition 2 —
// a partition's scatter arriving before its previous stay write finished
// — is the engine's decision: it either waits for StayFile.Use or calls
// StayFile.Discard to cancel, which refunds the unused reserved device
// time ("pulls out in time from expensive data writing").
type StayWriter struct {
	vol      storage.Volume
	bufSize  int
	bufCount int

	tasks chan stayTask
	// slots counts the buffers handed to the writer goroutine and not
	// yet returned to their pool: the engine takes a slot before a
	// hand-off, the goroutine frees it after the Put.
	slots chan struct{}
	wg    sync.WaitGroup

	// inflight holds handles of background buffer writes handed to the
	// writer thread; engine-thread only.
	inflight []*disksim.AsyncOp

	// bufferWaits counts the times the engine stalled because all
	// private buffers were in flight.
	bufferWaits int64

	// ctx is the owning query's context (never nil; defaults to
	// Background). A cancelled context short-circuits wall-clock grace
	// waits in TryUse so a dead query stops waiting for late stay
	// writes and discards them — releasing the private buffers and the
	// temp file — instead of burning its grace period.
	ctx context.Context
}

type stayOp int

const (
	opWrite stayOp = iota
	opClose
)

type stayTask struct {
	f    *StayFile
	data []byte // what to write
	buf  []byte // the pool buffer data lives in, returned after the write
	op   stayOp
}

// NewStayWriter starts the dedicated writer goroutine. bufSize is the
// size of each private edge buffer; bufCount the number of buffers
// ("the edge buffer count and size are made tunable", §III). Each
// StayFile carries its own Timing, because FastBFS switches the stay-out
// stream between disks per iteration in two-disk mode (§IV-C3).
func NewStayWriter(vol storage.Volume, bufSize, bufCount int) *StayWriter {
	if bufSize < graph.EdgeBytes {
		bufSize = graph.EdgeBytes
	}
	bufSize -= bufSize % graph.EdgeBytes
	if bufCount < 1 {
		bufCount = 1
	}
	sw := &StayWriter{
		vol:      vol,
		bufSize:  bufSize,
		bufCount: bufCount,
		tasks:    make(chan stayTask, bufCount),
		slots:    make(chan struct{}, bufCount+1),
		ctx:      context.Background(),
	}
	sw.wg.Add(1)
	go sw.run()
	return sw
}

// SetContext binds the writer to the owning query's cancellation
// context. Call before the first Begin; a nil ctx keeps Background.
func (sw *StayWriter) SetContext(ctx context.Context) {
	if ctx != nil {
		sw.ctx = ctx
	}
}

func (sw *StayWriter) run() {
	defer sw.wg.Done()
	for t := range sw.tasks {
		f := t.f
		switch t.op {
		case opWrite:
			if f.err == nil && !f.discard.Load() {
				if _, err := f.w.Write(t.data); err != nil {
					f.err = err
				}
			}
			f.timing.Bufs.Put(t.buf)
			<-sw.slots
		case opClose:
			if f.err != nil || f.discard.Load() {
				f.w.Abort()
			} else if err := f.w.Close(); err != nil {
				f.err = err
			} else {
				f.published = true
			}
			close(f.dataDone)
		}
	}
}

// Shutdown stops the writer goroutine. Every StayFile must have been
// Closed first.
func (sw *StayWriter) Shutdown() {
	close(sw.tasks)
	sw.wg.Wait()
}

// BufferWaits reports how often the engine stalled on buffer exhaustion.
func (sw *StayWriter) BufferWaits() int64 { return sw.bufferWaits }

// StayFile is one partition's stay list being written in the background.
type StayFile struct {
	sw     *StayWriter
	timing Timing
	sid    disksim.StreamID
	name   string
	w      storage.Writer
	codec  graph.Codec

	buf   []byte
	fill  int
	count int64

	// ops are the device handles of this file's background buffer
	// writes, used for completion queries and cancellation refunds.
	ops []*disksim.AsyncOp

	dataDone  chan struct{}
	discard   atomic.Bool
	published bool
	err       error // written by the worker before dataDone closes
	closed    bool
}

// Begin creates a new stay file on the device described by timing and
// starts accepting edges for it. Stay files are written in the
// checksummed framed format (one frame per private buffer): a stay
// write torn by a crash or a fault injector is detected when the file
// is adopted as the next iteration's input, turning silent corruption
// into the already-safe cancellation path. timing.Retry, when set,
// retries transient write faults on the writer goroutine.
func (sw *StayWriter) Begin(name string, timing Timing) (*StayFile, error) {
	return sw.BeginCodec(name, timing, graph.CodecFixed)
}

// BeginCodec is Begin under an edge codec. Delta stay files buffer raw
// records like fixed ones, but each buffer is delta-encoded on the
// engine thread at hand-off — the device reservation covers the
// encoded bytes and Timing.MemBW is charged with the raw bytes — and
// the writer goroutine emits it as one FBD1 frame.
func (sw *StayWriter) BeginCodec(name string, timing Timing, codec graph.Codec) (*StayFile, error) {
	var w storage.Writer
	if codec == graph.CodecDelta {
		inner, err := createRetrying(sw.vol, name, timing.Retry)
		if err != nil {
			return nil, err
		}
		w = newFramedWriterMagic(inner, graph.FrameMagicDelta)
	} else {
		var err error
		w, err = createFramed(sw.vol, name, timing.Retry)
		if err != nil {
			return nil, err
		}
	}
	return &StayFile{
		sw:       sw,
		timing:   timing,
		sid:      disksim.NewStreamID(),
		name:     name,
		w:        w,
		codec:    codec,
		dataDone: make(chan struct{}),
	}, nil
}

// Name returns the stay file's name on the volume.
func (f *StayFile) Name() string { return f.name }

// Count returns the number of edges appended.
func (f *StayFile) Count() int64 { return f.count }

// Append adds a live edge to the stay list, handing the buffer to the
// writer thread when it fills.
func (f *StayFile) Append(e graph.Edge) error {
	if f.closed {
		return fmt.Errorf("stream: append to closed stay file %s", f.name)
	}
	if f.fill+graph.EdgeBytes > len(f.buf) {
		f.flushAsync()
		if f.buf == nil {
			// The first buffer, or the replacement of the one that just
			// left with its task — taken after the hand-off, so the two
			// never count against the bound together.
			f.buf = f.timing.Bufs.Get(f.sw.bufSize)
		}
	}
	graph.PutEdge(f.buf[f.fill:], e)
	f.fill += graph.EdgeBytes
	f.count++
	return nil
}

// AppendChunk adds es in order — Append over a slice, handing buffers
// over at exactly the edges Append would.
func (f *StayFile) AppendChunk(es []graph.Edge) error {
	if f.closed {
		return fmt.Errorf("stream: append to closed stay file %s", f.name)
	}
	for len(es) > 0 {
		if f.fill+graph.EdgeBytes > len(f.buf) {
			f.flushAsync()
			if f.buf == nil {
				f.buf = f.timing.Bufs.Get(f.sw.bufSize) // see Append
			}
		}
		n := min((len(f.buf)-f.fill)/graph.EdgeBytes, len(es))
		encodeEdges(f.buf[f.fill:], es[:n])
		f.fill += n * graph.EdgeBytes
		f.count += int64(n)
		es = es[n:]
	}
	return nil
}

// flushAsync reserves device time for the current buffer and hands it to
// the writer goroutine, stalling (real and virtual) if every private
// buffer is already in flight.
func (f *StayFile) flushAsync() {
	if f.fill == 0 {
		return
	}
	sw := f.sw
	sw.slots <- struct{}{}
	data, buf := f.buf[:f.fill], f.buf
	if f.codec == graph.CodecDelta {
		// Encode on the engine thread so the device reservation below
		// covers the encoded bytes; the raw bytes are a memory pass. The
		// raw buffer stays with the file and the encoded copy travels. An
		// encoding larger than its raw input (none on any graph here)
		// spills out of the pooled buffer into a one-off allocation; the
		// pooled one still goes back after the write.
		buf = f.timing.Bufs.Get(sw.bufSize)
		enc, err := graph.AppendDeltaBlocks(buf[:0], data)
		if err != nil {
			panic(err) // the buffer holds whole records by construction
		}
		f.timing.memPass(int64(f.fill))
		data = enc
	} else {
		f.buf = nil // travels with the task
	}
	f.fill = 0
	if c := f.timing.Clock; c != nil {
		// Retire buffers whose writes completed.
		for len(sw.inflight) > 0 && sw.inflight[0].Done(c.Now()) {
			sw.inflight = sw.inflight[1:]
		}
		// Paper condition 1: "when the amount of edge buffers are
		// consumed out" the engine must wait for one to free up.
		if len(sw.inflight) >= sw.bufCount {
			sw.bufferWaits++
			c.WaitUntil(c.BgCompletion(sw.inflight[0]))
			sw.inflight = sw.inflight[1:]
		}
		op := c.WriteAsync(f.timing.Device, int64(len(data)), f.sid)
		f.ops = append(f.ops, op)
		sw.inflight = append(sw.inflight, op)
	}
	sw.tasks <- stayTask{f: f, data: data, buf: buf, op: opWrite}
}

// Close flushes the remaining edges and enqueues the file's publication;
// the file holds no buffer afterwards. It returns immediately; the write
// completes in the background. After Close the engine must eventually
// call either Use or Discard.
func (f *StayFile) Close() error {
	if f.closed {
		return nil
	}
	f.closed = true
	f.flushAsync()
	f.timing.Bufs.Put(f.buf) // what the flush left behind: nothing, or the delta codec's raw buffer
	f.buf = nil
	f.sw.tasks <- stayTask{f: f, op: opClose}
	return nil
}

// ReadyAt returns the virtual time at which the file's background write
// completes, projected at the current clock time (0 when running without
// a clock or when the file never flushed a buffer).
func (f *StayFile) ReadyAt() float64 {
	c := f.timing.Clock
	if c == nil || len(f.ops) == 0 {
		return 0
	}
	return c.BgCompletion(f.ops[len(f.ops)-1])
}

// Use waits for the background write to finish (real data-side wait) and
// returns any write error. The caller is responsible for the virtual-time
// wait (Clock.WaitUntil(f.ReadyAt())) so that engines can interleave it
// with grace-period policy.
func (f *StayFile) Use() error {
	if !f.closed {
		return fmt.Errorf("stream: Use before Close of stay file %s", f.name)
	}
	<-f.dataDone
	return f.err
}

// TryUse waits up to timeout (wall-clock) for the background write to
// finish. It returns (true, write error) if the data is ready, and
// (false, nil) if the grace period expired or the owning query's
// context was cancelled — the caller should then Discard, which is the
// paper's cancellation path in real-disk mode (and, for a cancelled
// query, what releases the buffers and removes the temp file).
func (f *StayFile) TryUse(timeout time.Duration) (bool, error) {
	if !f.closed {
		return false, fmt.Errorf("stream: TryUse before Close of stay file %s", f.name)
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-f.dataDone:
		return true, f.err
	case <-f.sw.ctx.Done():
		return false, nil
	case <-timer.C:
		return false, nil
	}
}

// Discard cancels the stay file: the paper's cancellation mechanism. It
// refunds reserved-but-unstarted device time for buffers whose virtual
// writes had not completed, marks the file discarded for the writer
// thread, and removes it from the volume if it was already published.
func (f *StayFile) Discard() error {
	if !f.closed {
		return fmt.Errorf("stream: Discard before Close of stay file %s", f.name)
	}
	f.discard.Store(true)
	if c := f.timing.Clock; c != nil {
		for _, op := range f.ops {
			c.CancelAsync(op)
		}
	}
	<-f.dataDone
	if f.published {
		return f.sw.vol.Remove(f.name)
	}
	return nil
}
