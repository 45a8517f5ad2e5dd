// Package storage provides the file substrate every engine streams
// through: a Volume abstraction with two implementations — an in-memory
// volume (Mem) used for deterministic simulation and tests, and an
// OS-backed volume (OS) for real-disk runs.
//
// Volumes move data only. I/O *timing* is modelled separately by
// internal/disksim; engines call both. This separation keeps results
// (BFS trees, byte counts) real while making timing deterministic.
//
// Files are written once, sequentially, then read any number of times:
// streamed whole, or — through the io.ReaderAt every reader of this
// package also implements — in byte ranges, which is how a stored pass
// reads only the frontier's edges of an indexed edge file and how
// GraphChi reads its sliding windows.
package storage

import (
	"errors"
	"fmt"
	"io"
)

// ErrNotExist is returned when opening, removing or renaming a file that
// does not exist on the volume.
var ErrNotExist = errors.New("storage: file does not exist")

// ErrExist is returned by Rename when the destination name is already
// taken and by Create when a file is already open for writing.
var ErrExist = errors.New("storage: file already exists")

// Reader is a sequential file reader.
type Reader interface {
	io.ReadCloser
	// Size returns the total size of the file in bytes.
	Size() int64
}

// Writer is a sequential file writer. Data becomes visible to Open only
// after Close. Abort discards the file (used by FastBFS's stay-write
// cancellation).
type Writer interface {
	io.WriteCloser
	// Abort discards everything written so far and removes the file.
	// After Abort, Close is a no-op. Abort after Close is an error.
	Abort() error
}

// SyncWriter is optionally implemented by Writers whose data can be
// forced to stable storage before Close. Checkpoint manifests use it to
// get write-temp + sync + rename crash consistency; callers must treat
// it as best-effort on volumes whose writers do not implement it (Mem
// is trivially durable for the lifetime of the process).
type SyncWriter interface {
	Writer
	// Sync flushes everything written so far to stable storage.
	Sync() error
}

// RangeVolume is implemented by volumes that can also patch a byte range
// of a file in place, which GraphChi's parallel sliding windows need.
type RangeVolume interface {
	Volume
	// Patch overwrites len(data) bytes at offset off of an existing
	// file. The range must lie within the file.
	Patch(name string, off int64, data []byte) error
}

// readAt is ReadAt on r, for the wrappers whose inner reader may lack it.
func readAt(r Reader, p []byte, off int64) (int, error) {
	ra, ok := r.(io.ReaderAt)
	if !ok {
		return 0, fmt.Errorf("storage: %T reads no ranges", r)
	}
	return ra.ReadAt(p, off)
}

// Volume is a flat namespace of sequential files.
type Volume interface {
	// Create starts writing a new file, truncating any existing file of
	// the same name once the writer is closed successfully.
	Create(name string) (Writer, error)
	// Open reads an existing, fully written file.
	Open(name string) (Reader, error)
	// Remove deletes a file.
	Remove(name string) error
	// Rename atomically renames a file, replacing any existing dst.
	Rename(src, dst string) error
	// Exists reports whether a fully written file of this name exists.
	Exists(name string) bool
	// Size returns the size of a file, or ErrNotExist.
	Size(name string) (int64, error)
	// List returns the names of all files on the volume, sorted.
	List() []string
}

// ReadAll reads the entire named file from v.
func ReadAll(v Volume, name string) ([]byte, error) {
	r, err := v.Open(name)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	b, err := ReadRest(r)
	if err != nil {
		return b, fmt.Errorf("storage: reading %s: %w", name, err)
	}
	return b, nil
}

// ReadRest reads r to its end straight into a slice of its Size, and one
// byte more to meet the end without growing it; a file longer than its
// Size grows the slice as append does.
func ReadRest(r Reader) ([]byte, error) {
	b := make([]byte, 0, max(r.Size(), 0)+1)
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// WriteAll creates the named file on v with the given contents.
func WriteAll(v Volume, name string, data []byte) error {
	w, err := v.Create(name)
	if err != nil {
		return err
	}
	if _, err := w.Write(data); err != nil {
		w.Abort()
		return fmt.Errorf("storage: writing %s: %w", name, err)
	}
	return w.Close()
}
