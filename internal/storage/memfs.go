package storage

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Mem is an in-memory Volume. It is safe for concurrent use: the FastBFS
// engine's asynchronous stay writer runs on its own goroutine and writes
// stay files while the main thread reads edge and update files.
type Mem struct {
	mu    sync.Mutex
	files map[string][]byte
	// failWrites, when non-nil, is consulted on every Write for fault
	// injection in tests. See FailWrites.
	failWrites func(name string, written int64) error
}

// NewMem returns an empty in-memory volume.
func NewMem() *Mem {
	return &Mem{files: make(map[string][]byte)}
}

// FailWrites installs a fault-injection hook: fn is called before each
// Write with the file name and the bytes already written; a non-nil
// return aborts that Write with the error. Pass nil to disable.
func (m *Mem) FailWrites(fn func(name string, written int64) error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failWrites = fn
}

// TotalBytes returns the sum of all file sizes, for memory accounting in
// tests and examples.
func (m *Mem) TotalBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n int64
	for _, b := range m.files {
		n += int64(len(b))
	}
	return n
}

// Create implements Volume.
func (m *Mem) Create(name string) (Writer, error) {
	if name == "" {
		return nil, fmt.Errorf("storage: empty file name")
	}
	return &memWriter{vol: m, name: name}, nil
}

// Open implements Volume.
func (m *Mem) Open(name string) (Reader, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.files[name]
	if !ok {
		return nil, fmt.Errorf("storage: open %s: %w", name, ErrNotExist)
	}
	return &memReader{data: b}, nil
}

// Remove implements Volume.
func (m *Mem) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return fmt.Errorf("storage: remove %s: %w", name, ErrNotExist)
	}
	delete(m.files, name)
	return nil
}

// Rename implements Volume.
func (m *Mem) Rename(src, dst string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.files[src]
	if !ok {
		return fmt.Errorf("storage: rename %s: %w", src, ErrNotExist)
	}
	m.files[dst] = b
	delete(m.files, src)
	return nil
}

// Exists implements Volume.
func (m *Mem) Exists(name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.files[name]
	return ok
}

// Size implements Volume.
func (m *Mem) Size(name string) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.files[name]
	if !ok {
		return 0, fmt.Errorf("storage: size %s: %w", name, ErrNotExist)
	}
	return int64(len(b)), nil
}

// Patch implements RangeVolume.
func (m *Mem) Patch(name string, off int64, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.files[name]
	if !ok {
		return fmt.Errorf("storage: patch %s: %w", name, ErrNotExist)
	}
	if off < 0 || off+int64(len(data)) > int64(len(b)) {
		return fmt.Errorf("storage: patch %s: [%d,%d) outside file of %d bytes", name, off, off+int64(len(data)), len(b))
	}
	// Copy-on-write so open readers keep a consistent snapshot.
	nb := make([]byte, len(b))
	copy(nb, b)
	copy(nb[off:], data)
	m.files[name] = nb
	return nil
}

// List implements Volume.
func (m *Mem) List() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.files))
	for n := range m.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

type memWriter struct {
	vol     *Mem
	name    string
	buf     []byte
	done    bool
	aborted bool
}

func (w *memWriter) Write(p []byte) (int, error) {
	if w.done || w.aborted {
		return 0, fmt.Errorf("storage: write to closed file %s", w.name)
	}
	w.vol.mu.Lock()
	hook := w.vol.failWrites
	w.vol.mu.Unlock()
	if hook != nil {
		if err := hook(w.name, int64(len(w.buf))); err != nil {
			return 0, err
		}
	}
	w.buf = append(w.buf, p...)
	return len(p), nil
}

func (w *memWriter) Close() error {
	if w.aborted {
		return nil
	}
	if w.done {
		return fmt.Errorf("storage: double close of %s", w.name)
	}
	w.done = true
	w.vol.mu.Lock()
	defer w.vol.mu.Unlock()
	w.vol.files[w.name] = w.buf
	return nil
}

func (w *memWriter) Abort() error {
	if w.done {
		return fmt.Errorf("storage: abort after close of %s", w.name)
	}
	w.aborted = true
	w.buf = nil
	return nil
}

type memReader struct {
	data []byte
	off  int
	done bool
}

func (r *memReader) Read(p []byte) (int, error) {
	if r.done {
		return 0, fmt.Errorf("storage: read from closed file")
	}
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// ReadAt implements io.ReaderAt.
func (r *memReader) ReadAt(p []byte, off int64) (int, error) {
	return bytes.NewReader(r.data).ReadAt(p, off)
}

func (r *memReader) Close() error {
	r.done = true
	return nil
}

func (r *memReader) Size() int64 { return int64(len(r.data)) }
