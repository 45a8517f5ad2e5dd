package storage

import (
	"fmt"
	"sync/atomic"
)

// IOStats is a point-in-time snapshot of a Counting volume's traffic.
type IOStats struct {
	BytesRead    int64
	BytesWritten int64
	ReadOps      int64 // Open calls
	WriteOps     int64 // successfully closed Create calls
}

// Sub returns the delta s - base (traffic since an earlier snapshot).
func (s IOStats) Sub(base IOStats) IOStats {
	return IOStats{
		BytesRead:    s.BytesRead - base.BytesRead,
		BytesWritten: s.BytesWritten - base.BytesWritten,
		ReadOps:      s.ReadOps - base.ReadOps,
		WriteOps:     s.WriteOps - base.WriteOps,
	}
}

// Counting wraps a Volume and counts bytes and operations flowing
// through it, atomically, so a concurrent observer (the debug HTTP
// endpoint, a progress printer) can watch real-disk traffic while an
// engine runs. In wall-clock mode the engine scaffolding reports the
// wrapper's per-run delta as a DeviceStats entry, filling the role the
// simulated devices play in sim mode.
type Counting struct {
	inner Volume
	name  string

	bytesRead    atomic.Int64
	bytesWritten atomic.Int64
	readOps      atomic.Int64
	writeOps     atomic.Int64
}

// NewCounting wraps inner; name labels the volume in DeviceStats.
func NewCounting(inner Volume, name string) *Counting {
	return &Counting{inner: inner, name: name}
}

// Name returns the label given at construction.
func (c *Counting) Name() string { return c.name }

// Unwrap returns the wrapped volume.
func (c *Counting) Unwrap() Volume { return c.inner }

// Stats snapshots the traffic counters; safe from any goroutine.
func (c *Counting) Stats() IOStats {
	return IOStats{
		BytesRead:    c.bytesRead.Load(),
		BytesWritten: c.bytesWritten.Load(),
		ReadOps:      c.readOps.Load(),
		WriteOps:     c.writeOps.Load(),
	}
}

// Create implements Volume.
func (c *Counting) Create(name string) (Writer, error) {
	w, err := c.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &countingWriter{inner: w, vol: c}, nil
}

// Open implements Volume.
func (c *Counting) Open(name string) (Reader, error) {
	r, err := c.inner.Open(name)
	if err != nil {
		return nil, err
	}
	c.readOps.Add(1)
	return &countingReader{inner: r, vol: c}, nil
}

// Remove implements Volume.
func (c *Counting) Remove(name string) error { return c.inner.Remove(name) }

// Rename implements Volume.
func (c *Counting) Rename(src, dst string) error { return c.inner.Rename(src, dst) }

// Exists implements Volume.
func (c *Counting) Exists(name string) bool { return c.inner.Exists(name) }

// Size implements Volume.
func (c *Counting) Size(name string) (int64, error) { return c.inner.Size(name) }

// List implements Volume.
func (c *Counting) List() []string { return c.inner.List() }

// Patch implements RangeVolume when the wrapped volume does.
func (c *Counting) Patch(name string, off int64, data []byte) error {
	rv, ok := c.inner.(RangeVolume)
	if !ok {
		return fmt.Errorf("storage: %T does not support Patch", c.inner)
	}
	err := rv.Patch(name, off, data)
	if err == nil {
		c.bytesWritten.Add(int64(len(data)))
		c.writeOps.Add(1)
	}
	return err
}

type countingReader struct {
	inner Reader
	vol   *Counting
}

func (r *countingReader) Read(p []byte) (int, error) {
	n, err := r.inner.Read(p)
	if n > 0 {
		r.vol.bytesRead.Add(int64(n))
	}
	return n, err
}

// ReadAt counts the bytes a ranged read moves; the open was the operation.
func (r *countingReader) ReadAt(p []byte, off int64) (int, error) {
	n, err := readAt(r.inner, p, off)
	r.vol.bytesRead.Add(int64(n))
	return n, err
}

func (r *countingReader) Close() error { return r.inner.Close() }
func (r *countingReader) Size() int64  { return r.inner.Size() }

type countingWriter struct {
	inner Writer
	vol   *Counting
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.inner.Write(p)
	if n > 0 {
		w.vol.bytesWritten.Add(int64(n))
	}
	return n, err
}

func (w *countingWriter) Close() error {
	err := w.inner.Close()
	if err == nil {
		w.vol.writeOps.Add(1)
	}
	return err
}

func (w *countingWriter) Abort() error { return w.inner.Abort() }
