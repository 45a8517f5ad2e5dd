package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// OS is a Volume backed by a directory of real files. It gives FastBFS a
// real-disk mode: run the engines against actual storage and wall-clock
// time instead of the simulator. Writes go to a temporary ".partial"
// name and are renamed into place on Close, so Open never observes a
// half-written file — the same visibility rule Mem provides.
type OS struct {
	dir string
	mu  sync.Mutex
	seq int
}

// NewOS returns a Volume rooted at dir, creating it if needed.
func NewOS(dir string) (*OS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: creating volume dir: %w", err)
	}
	return &OS{dir: dir}, nil
}

// Dir returns the directory backing the volume.
func (v *OS) Dir() string { return v.dir }

func (v *OS) path(name string) (string, error) {
	if name == "" || strings.ContainsAny(name, "/\\") {
		return "", fmt.Errorf("storage: invalid file name %q", name)
	}
	return filepath.Join(v.dir, name), nil
}

// Create implements Volume.
func (v *OS) Create(name string) (Writer, error) {
	final, err := v.path(name)
	if err != nil {
		return nil, err
	}
	v.mu.Lock()
	v.seq++
	tmp := fmt.Sprintf("%s.partial.%d", final, v.seq)
	v.mu.Unlock()
	f, err := os.Create(tmp)
	if err != nil {
		return nil, fmt.Errorf("storage: create %s: %w", name, err)
	}
	return &osWriter{f: f, tmp: tmp, final: final}, nil
}

// Open implements Volume.
func (v *OS) Open(name string) (Reader, error) {
	p, err := v.path(name)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(p)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("storage: open %s: %w", name, ErrNotExist)
		}
		return nil, fmt.Errorf("storage: open %s: %w", name, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: stat %s: %w", name, err)
	}
	return &osReader{f: f, size: st.Size()}, nil
}

// Remove implements Volume.
func (v *OS) Remove(name string) error {
	p, err := v.path(name)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("storage: remove %s: %w", name, ErrNotExist)
		}
		return fmt.Errorf("storage: remove %s: %w", name, err)
	}
	return nil
}

// Rename implements Volume.
func (v *OS) Rename(src, dst string) error {
	ps, err := v.path(src)
	if err != nil {
		return err
	}
	pd, err := v.path(dst)
	if err != nil {
		return err
	}
	if err := os.Rename(ps, pd); err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("storage: rename %s: %w", src, ErrNotExist)
		}
		return fmt.Errorf("storage: rename %s -> %s: %w", src, dst, err)
	}
	return nil
}

// Exists implements Volume.
func (v *OS) Exists(name string) bool {
	p, err := v.path(name)
	if err != nil {
		return false
	}
	_, err = os.Stat(p)
	return err == nil
}

// Size implements Volume.
func (v *OS) Size(name string) (int64, error) {
	p, err := v.path(name)
	if err != nil {
		return 0, err
	}
	st, err := os.Stat(p)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, fmt.Errorf("storage: size %s: %w", name, ErrNotExist)
		}
		return 0, fmt.Errorf("storage: size %s: %w", name, err)
	}
	return st.Size(), nil
}

// Patch implements RangeVolume.
func (v *OS) Patch(name string, off int64, data []byte) error {
	p, err := v.path(name)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(p, os.O_WRONLY, 0)
	if err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("storage: patch %s: %w", name, ErrNotExist)
		}
		return fmt.Errorf("storage: patch %s: %w", name, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("storage: patch %s: %w", name, err)
	}
	if off < 0 || off+int64(len(data)) > st.Size() {
		return fmt.Errorf("storage: patch %s: [%d,%d) outside file of %d bytes", name, off, off+int64(len(data)), st.Size())
	}
	if _, err := f.WriteAt(data, off); err != nil {
		return fmt.Errorf("storage: patch %s: %w", name, err)
	}
	return nil
}

// List implements Volume.
func (v *OS) List() []string {
	entries, err := os.ReadDir(v.dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || strings.Contains(e.Name(), ".partial.") {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}

type osWriter struct {
	f          *os.File
	tmp, final string
	done       bool
	aborted    bool
}

func (w *osWriter) Write(p []byte) (int, error) {
	if w.done || w.aborted {
		return 0, fmt.Errorf("storage: write to closed file %s", w.final)
	}
	return w.f.Write(p)
}

// Sync implements SyncWriter: it flushes buffered data for the
// in-progress temporary file to stable storage. The rename performed by
// Close is what makes the file visible, so Sync-then-Close gives the
// usual write-temp + fsync + rename crash-consistency recipe.
func (w *osWriter) Sync() error {
	if w.done || w.aborted {
		return fmt.Errorf("storage: sync of closed file %s", w.final)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("storage: sync %s: %w", w.final, err)
	}
	return nil
}

func (w *osWriter) Close() error {
	if w.aborted {
		return nil
	}
	if w.done {
		return fmt.Errorf("storage: double close of %s", w.final)
	}
	w.done = true
	if err := w.f.Close(); err != nil {
		os.Remove(w.tmp)
		return fmt.Errorf("storage: close %s: %w", w.final, err)
	}
	if err := os.Rename(w.tmp, w.final); err != nil {
		os.Remove(w.tmp)
		return fmt.Errorf("storage: publish %s: %w", w.final, err)
	}
	return nil
}

func (w *osWriter) Abort() error {
	if w.done {
		return fmt.Errorf("storage: abort after close of %s", w.final)
	}
	w.aborted = true
	w.f.Close()
	return os.Remove(w.tmp)
}

type osReader struct {
	f    *os.File
	size int64
}

func (r *osReader) Read(p []byte) (int, error)              { return r.f.Read(p) }
func (r *osReader) ReadAt(p []byte, off int64) (int, error) { return r.f.ReadAt(p, off) }
func (r *osReader) Close() error                            { return r.f.Close() }
func (r *osReader) Size() int64                             { return r.size }
