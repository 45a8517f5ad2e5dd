// Package disksim is an analytic storage-and-time simulator. It stands in
// for the FastBFS paper's physical testbed (two 7200-RPM SATA disks and a
// SATA2 SSD on a 4-core Xeon), which we cannot control from inside a
// container.
//
// Each Device services two classes of work as fluid queues:
//
//   - Foreground operations (synchronous reads and writes) stall the
//     engine's Clock until their queue drains.
//   - Background operations (FastBFS's asynchronous stay-stream writes,
//     issued via Clock.WriteAsync) never stall the engine. They drain at
//     full device rate whenever the device is otherwise idle — during
//     compute phases and I/O on other devices — and at a fair half share
//     when foreground work is present, which in turn slows the
//     foreground down. This is the first-order behaviour of a real disk
//     handling OS write-back underneath a streaming reader, and it is
//     what makes the paper's mechanisms emerge rather than being
//     assumed: latency hiding (background writes covered by compute and
//     cross-device I/O), genuine late stay files (cancellation), and the
//     two-disk speedup (no shared spindle, Fig. 10).
//
// A Clock and its Devices belong to a single engine run; all time
// accounting happens on the engine thread (the real stay-writer
// goroutine moves data only), and every interaction carries the clock's
// monotone current time.
package disksim

import (
	"fmt"
	"sync/atomic"
)

// StreamID tags a logical sequential stream (one open file being scanned
// or appended). Consecutive operations on a device from the same stream
// skip the positioning cost — the head is already there — while a switch
// between streams pays the full seek. This is what makes stream buffer
// sizes matter, exactly as in the paper (§III: "the edge buffer size is
// chosen in order to attain better sequential accessing performance").
// StreamID 0 is "untagged": every op pays the seek.
type StreamID int64

var streamCounter atomic.Int64

// NewStreamID allocates a fresh stream tag.
func NewStreamID() StreamID { return StreamID(streamCounter.Add(1)) }

// Device models one disk.
type Device struct {
	// Name labels the device in metrics ("hdd0", "ssd0", ...).
	Name string
	// SeekLatency is the fixed per-operation positioning cost in seconds.
	SeekLatency float64
	// Bandwidth is the sequential transfer rate in bytes/second.
	Bandwidth float64

	t  float64 // time through which the fluid state is advanced
	fg lane    // foreground class: engine-blocking ops and read-ahead
	bg lane    // background class: write-behind flushes and stay streams

	busy         float64
	bytesRead    int64
	bytesWritten int64
	ops          int64
	seeks        int64
	lastStream   StreamID
}

// lane is one fluid service class.
type lane struct {
	backlog float64    // seconds of service pending
	served  float64    // cumulative service completed
	queue   []*AsyncOp // pending async ops, FIFO (blocking ops carry no handle)
}

// AsyncOp is a handle to one non-blocking operation: a background write
// (stay streams, write-behind flushes — bg lane) or a read-ahead
// prefetch (fg lane; the paper's "number of edge buffers can be more
// than one for pre-fetching", §III).
type AsyncOp struct {
	dev     *Device
	ln      *lane
	service float64 // this op's total service time
	endMark float64 // cumulative lane `served` value at which the op completes
	bytes   int64
	done    bool
	doneAt  float64
}

// HDD returns a device modelled on the paper's Seagate Barracuda
// 7200-RPM SATA3 disk: ~8.5 ms average positioning, ~120 MB/s sequential.
func HDD(name string) *Device {
	return &Device{Name: name, SeekLatency: 8.5e-3, Bandwidth: 120e6}
}

// SSD returns a device modelled on the paper's EJITEC SATA2 SSD:
// ~60 µs access, ~250 MB/s sequential (SATA2 link-bound).
func SSD(name string) *Device {
	return &Device{Name: name, SeekLatency: 60e-6, Bandwidth: 250e6}
}

// HDDScaled returns the HDD preset with its positioning cost divided by
// factor. When a benchmark scales the paper's multi-gigabyte datasets
// down by a factor F, per-stream transfer time shrinks by F while the
// number of stream switches stays roughly constant — so the seek cost
// must shrink by F too, or seeks dominate in a way they never did on the
// paper's testbed. See DESIGN.md §6.
func HDDScaled(name string, factor float64) *Device {
	d := HDD(name)
	d.SeekLatency /= factor
	return d
}

// SSDScaled is SSD with the positioning cost divided by factor (see
// HDDScaled).
func SSDScaled(name string, factor float64) *Device {
	d := SSD(name)
	d.SeekLatency /= factor
	return d
}

// opTime returns the service time for an n-byte operation from stream
// sid, charging the positioning cost only when the device was last used
// by a different stream.
func (d *Device) opTime(n int64, sid StreamID) float64 {
	t := float64(n) / d.Bandwidth
	if sid == 0 || sid != d.lastStream {
		t += d.SeekLatency
		d.seeks++
	}
	d.lastStream = sid
	return t
}

// advance moves the fluid state forward to time `to`, draining both
// lanes (fair half-share when both are active) and completing async ops
// whose service finishes.
func (d *Device) advance(to float64) {
	for d.t < to {
		// Retire ops whose service is already covered (guards the
		// step computation against zero-length limits).
		d.fg.retire(d.t)
		d.bg.retire(d.t)
		if d.fg.backlog <= 0 && d.bg.backlog <= 0 {
			d.t = to
			return
		}
		step := to - d.t
		fgRate, bgRate := 0.0, 0.0
		switch {
		case d.fg.backlog > 0 && d.bg.backlog > 0:
			fgRate, bgRate = 0.5, 0.5
			if lim := 2 * d.fg.backlog; lim < step {
				step = lim
			}
			if lim := 2 * d.bg.backlog; lim < step {
				step = lim
			}
		case d.fg.backlog > 0:
			fgRate = 1.0
			if d.fg.backlog < step {
				step = d.fg.backlog
			}
		default:
			bgRate = 1.0
			if d.bg.backlog < step {
				step = d.bg.backlog
			}
		}
		// Break the step at the next async-op completion in either lane
		// so doneAt is exact.
		if fgRate > 0 && len(d.fg.queue) > 0 {
			rem := d.fg.queue[0].endMark - d.fg.served
			if lim := rem / fgRate; lim < step {
				step = lim
			}
		}
		if bgRate > 0 && len(d.bg.queue) > 0 {
			rem := d.bg.queue[0].endMark - d.bg.served
			if lim := rem / bgRate; lim < step {
				step = lim
			}
		}
		if step <= 0 {
			// Numerical guard: clear sub-epsilon residue.
			if d.fg.backlog < 1e-15 {
				d.fg.backlog = 0
			}
			if d.bg.backlog < 1e-15 {
				d.bg.backlog = 0
			}
			continue
		}
		d.t += step
		d.busy += step
		if fgRate > 0 {
			d.fg.drain(step*fgRate, d.t)
		}
		if bgRate > 0 {
			d.bg.drain(step*bgRate, d.t)
		}
	}
}

// drain consumes `amount` seconds of the lane's service at time `now`,
// retiring any async ops whose service completes.
func (l *lane) drain(amount, now float64) {
	l.backlog -= amount
	if l.backlog < 1e-15 {
		l.backlog = 0
	}
	l.served += amount
	l.retire(now)
}

// retire pops completed async ops off the lane's FIFO queue.
func (l *lane) retire(now float64) {
	for len(l.queue) > 0 && l.served >= l.queue[0].endMark-1e-15 {
		op := l.queue[0]
		op.done = true
		op.doneAt = now
		l.queue = l.queue[1:]
	}
}

// fgCompletion returns the time the foreground backlog drains, assuming
// no further arrivals, from the already-advanced state.
func (d *Device) fgCompletion() float64 {
	return d.t + projection(d.fg.backlog, d.bg.backlog)
}

// projection returns how long serving `rem` seconds of one lane takes
// when `other` seconds of the opposite lane contend at a fair half
// share, assuming no further arrivals.
func projection(rem, other float64) float64 {
	if rem <= 0 {
		return 0
	}
	if other <= 0 {
		return rem
	}
	if rem <= other {
		return 2 * rem
	}
	return 2*other + (rem - other)
}

// fgOp enqueues a foreground op of n bytes from stream sid at time `now`
// and returns its completion time.
func (d *Device) fgOp(now float64, n int64, sid StreamID) float64 {
	d.advance(now)
	d.fg.backlog += d.opTime(n, sid)
	d.ops++
	end := d.fgCompletion()
	// The caller blocks until `end`, so no arrivals can intervene and
	// the projection is exact.
	d.advance(end)
	return end
}

// asyncIssue enqueues a non-blocking op of n bytes from stream sid at
// time `now` on the given lane.
func (d *Device) asyncIssue(ln *lane, now float64, n int64, sid StreamID) *AsyncOp {
	d.advance(now)
	service := d.opTime(n, sid)
	ln.backlog += service
	d.ops++
	op := &AsyncOp{dev: d, ln: ln, service: service, bytes: n, endMark: ln.served + ln.backlog}
	ln.queue = append(ln.queue, op)
	return op
}

// CompletionAt returns the op's (projected) completion time as of query
// time q: exact if already complete, otherwise the completion assuming
// no further foreground arrivals — the engine re-evaluates at each
// decision point, which is where the optimism gets corrected.
func (op *AsyncOp) CompletionAt(q float64) float64 {
	d := op.dev
	d.advance(q)
	if op.done {
		return op.doneAt
	}
	rem := op.endMark - op.ln.served
	if rem <= 0 {
		return d.t
	}
	other := d.bg.backlog
	if op.ln == &d.bg {
		other = d.fg.backlog
	}
	return d.t + projection(rem, other)
}

// Done reports whether the op had completed by query time q.
func (op *AsyncOp) Done(q float64) bool {
	op.dev.advance(q)
	return op.done
}

// Bytes returns the op's size.
func (op *AsyncOp) Bytes() int64 { return op.bytes }

// cancel abandons the op's unperformed service at time q. A write refunds
// its untransferred bytes, and the refunded count is returned; a read-ahead
// booked none (see Clock.ReadAsync), so it refunds none.
func (d *Device) cancel(op *AsyncOp, q float64) int64 {
	d.advance(q)
	if op.done {
		return 0
	}
	ln := op.ln
	idx := -1
	for i, o := range ln.queue {
		if o == op {
			idx = i
			break
		}
	}
	if idx < 0 {
		return 0
	}
	prevMark := ln.served
	if idx > 0 {
		prevMark = ln.queue[idx-1].endMark
	}
	if prevMark < ln.served {
		prevMark = ln.served
	}
	ownRemaining := op.endMark - prevMark
	if ownRemaining < 0 {
		ownRemaining = 0
	}
	if ownRemaining > op.service {
		ownRemaining = op.service
	}
	ln.backlog -= ownRemaining
	if ln.backlog < 0 {
		ln.backlog = 0
	}
	for _, o := range ln.queue[idx+1:] {
		o.endMark -= ownRemaining
	}
	ln.queue = append(ln.queue[:idx], ln.queue[idx+1:]...)
	op.done = true
	op.doneAt = d.t
	if ln == &d.fg {
		return 0
	}
	refund := min(int64(float64(op.bytes)*ownRemaining/op.service), d.bytesWritten)
	d.bytesWritten -= refund
	return refund
}

// BytesRead returns the total bytes read from the device: every blocking
// read, and the bytes read-ahead delivered (BookRead).
func (d *Device) BytesRead() int64 { return d.bytesRead }

// BookRead books n bytes a read-ahead delivered to its reader.
func (d *Device) BookRead(n int64) { d.bytesRead += n }

// BytesWritten returns the total bytes written to the device (cancelled
// background bytes refunded).
func (d *Device) BytesWritten() int64 { return d.bytesWritten }

// BusyTime returns the total seconds the device spent servicing ops, as
// of the last interaction.
func (d *Device) BusyTime() float64 { return d.busy }

// Ops returns the number of operations issued.
func (d *Device) Ops() int64 { return d.ops }

// Seeks returns the number of operations that paid the positioning cost
// (stream switches).
func (d *Device) Seeks() int64 { return d.seeks }

// IdleAt returns the time at which every backlog drains, assuming no
// further arrivals.
func (d *Device) IdleAt() float64 {
	return d.t + d.fg.backlog + d.bg.backlog
}

// Clone returns a fresh device with the same characteristics (name,
// positioning cost, bandwidth) and zeroed usage state. Concurrent
// engine runs each need their own device: a Device accumulates fluid
// state and counters and must never be shared across timelines. Clone
// of nil is nil, so optional devices clone transparently.
func (d *Device) Clone() *Device {
	if d == nil {
		return nil
	}
	return &Device{Name: d.Name, SeekLatency: d.SeekLatency, Bandwidth: d.Bandwidth}
}

// Reset clears the device's state and counters for a fresh run.
func (d *Device) Reset() {
	d.t, d.busy = 0, 0
	d.fg = lane{}
	d.bg = lane{}
	d.bytesRead, d.bytesWritten, d.ops, d.seeks = 0, 0, 0, 0
	d.lastStream = 0
}

// CPU models the compute side of the testbed.
type CPU struct {
	// Cores is the number of physical cores (the paper's Xeon X5472 has 4).
	Cores int
	// ThreadOverhead is the fractional compute slowdown added per thread
	// beyond Cores ("increased multi-thread synchronization and
	// scheduling overhead", §IV-C1).
	ThreadOverhead float64
}

// DefaultCPU matches the paper's 4-core testbed.
func DefaultCPU() CPU { return CPU{Cores: 4, ThreadOverhead: 0.06} }

// Scale returns the wall-time for `work` seconds of single-threaded
// compute executed on `threads` threads.
func (c CPU) Scale(work float64, threads int) float64 {
	if threads < 1 {
		threads = 1
	}
	cores := c.Cores
	if cores < 1 {
		cores = 1
	}
	eff := threads
	if eff > cores {
		eff = cores
	}
	t := work / float64(eff)
	if threads > cores {
		t *= 1 + c.ThreadOverhead*float64(threads-cores)
	}
	return t
}

// Clock is one engine run's virtual timeline.
type Clock struct {
	cpu     CPU
	threads int

	now     float64
	ioWait  float64
	compute float64
}

// NewClock returns a clock using the given CPU model and thread count.
func NewClock(cpu CPU, threads int) *Clock {
	if threads < 1 {
		threads = 1
	}
	return &Clock{cpu: cpu, threads: threads}
}

// Now returns the current virtual time in seconds.
func (c *Clock) Now() float64 { return c.now }

// IOWait returns accumulated seconds the engine stalled on I/O.
func (c *Clock) IOWait() float64 { return c.ioWait }

// ComputeTime returns accumulated seconds of (thread-scaled) compute.
func (c *Clock) ComputeTime() float64 { return c.compute }

// Threads returns the thread count the clock scales compute with.
func (c *Clock) Threads() int { return c.threads }

// Compute advances the clock by `work` seconds of single-threaded
// compute, scaled by the CPU model and thread count.
func (c *Clock) Compute(work float64) {
	t := c.cpu.Scale(work, c.threads)
	c.now += t
	c.compute += t
}

// ComputeSerial advances the clock by exactly t seconds of compute that
// does not parallelize (per-iteration barriers, setup).
func (c *Clock) ComputeSerial(t float64) {
	c.now += t
	c.compute += t
}

// Read performs a synchronous n-byte read on d from stream sid: the
// clock stalls until the device completes the operation.
func (c *Clock) Read(d *Device, n int64, sid StreamID) {
	if n < 0 {
		panic(fmt.Sprintf("disksim: negative read size %d", n))
	}
	end := d.fgOp(c.now, n, sid)
	d.bytesRead += n
	c.stallUntil(end)
}

// WriteSync performs a synchronous n-byte write on d from stream sid.
func (c *Clock) WriteSync(d *Device, n int64, sid StreamID) {
	if n < 0 {
		panic(fmt.Sprintf("disksim: negative write size %d", n))
	}
	end := d.fgOp(c.now, n, sid)
	d.bytesWritten += n
	c.stallUntil(end)
}

// WriteAsync enqueues an n-byte background write on d without advancing
// the clock, returning a handle whose completion the caller can query
// (CompletionAt) or abandon (CancelAsync).
func (c *Clock) WriteAsync(d *Device, n int64, sid StreamID) *AsyncOp {
	if n < 0 {
		panic(fmt.Sprintf("disksim: negative write size %d", n))
	}
	op := d.asyncIssue(&d.bg, c.now, n, sid)
	d.bytesWritten += n
	return op
}

// ReadAsync reserves an n-byte read-ahead on d's foreground lane without
// advancing the clock: the prefetch keeps engine priority over
// background writes but lets the engine keep working (or stall on
// another device) while it streams in. It reserves device time only: the
// reader waits on the returned handle's completion before consuming the
// data, and books the bytes it consumed with Device.BookRead.
func (c *Clock) ReadAsync(d *Device, n int64, sid StreamID) *AsyncOp {
	if n < 0 {
		panic(fmt.Sprintf("disksim: negative read size %d", n))
	}
	return d.asyncIssue(&d.fg, c.now, n, sid)
}

// BgCompletion returns op's completion time as projected at the current
// clock time.
func (c *Clock) BgCompletion(op *AsyncOp) float64 { return op.CompletionAt(c.now) }

// CancelAsync abandons an in-flight async op and frees the device of its
// unperformed service. A background write refunds its untransferred bytes
// — the paper's stay-write cancellation ("pulls out in time from
// expensive data writing").
func (c *Clock) CancelAsync(op *AsyncOp) (refundedBytes int64) {
	return op.dev.cancel(op, c.now)
}

// WaitUntil stalls the clock until virtual time t (no-op if t is in the
// past), accounting the stall as iowait.
func (c *Clock) WaitUntil(t float64) {
	c.stallUntil(t)
}

func (c *Clock) stallUntil(t float64) {
	if t > c.now {
		c.ioWait += t - c.now
		c.now = t
	}
}

// IOWaitRatio returns ioWait / now, the metric of the paper's Fig. 6.
func (c *Clock) IOWaitRatio() float64 {
	if c.now == 0 {
		return 0
	}
	return c.ioWait / c.now
}
