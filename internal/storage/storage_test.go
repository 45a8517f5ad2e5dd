package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

// volumes returns one of each Volume implementation for table-driven
// conformance tests.
func volumes(t *testing.T) map[string]Volume {
	t.Helper()
	osv, err := NewOS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Volume{
		"mem": NewMem(),
		"os":  osv,
	}
}

func TestVolumeWriteReadRoundTrip(t *testing.T) {
	for name, v := range volumes(t) {
		t.Run(name, func(t *testing.T) {
			data := []byte("hello, graph")
			if err := WriteAll(v, "f1", data); err != nil {
				t.Fatal(err)
			}
			got, err := ReadAll(v, "f1")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("read %q, want %q", got, data)
			}
			if sz, err := v.Size("f1"); err != nil || sz != int64(len(data)) {
				t.Fatalf("Size = %d, %v", sz, err)
			}
			if !v.Exists("f1") {
				t.Fatal("Exists = false after write")
			}
		})
	}
}

func TestVolumeEmptyFile(t *testing.T) {
	for name, v := range volumes(t) {
		t.Run(name, func(t *testing.T) {
			if err := WriteAll(v, "empty", nil); err != nil {
				t.Fatal(err)
			}
			got, err := ReadAll(v, "empty")
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 0 {
				t.Fatalf("read %d bytes from empty file", len(got))
			}
		})
	}
}

func TestVolumeOpenMissing(t *testing.T) {
	for name, v := range volumes(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := v.Open("nope"); !errors.Is(err, ErrNotExist) {
				t.Fatalf("Open missing: err = %v, want ErrNotExist", err)
			}
			if _, err := v.Size("nope"); !errors.Is(err, ErrNotExist) {
				t.Fatalf("Size missing: err = %v, want ErrNotExist", err)
			}
			if err := v.Remove("nope"); !errors.Is(err, ErrNotExist) {
				t.Fatalf("Remove missing: err = %v, want ErrNotExist", err)
			}
			if err := v.Rename("nope", "x"); !errors.Is(err, ErrNotExist) {
				t.Fatalf("Rename missing: err = %v, want ErrNotExist", err)
			}
		})
	}
}

func TestVolumeRemove(t *testing.T) {
	for name, v := range volumes(t) {
		t.Run(name, func(t *testing.T) {
			if err := WriteAll(v, "f", []byte("x")); err != nil {
				t.Fatal(err)
			}
			if err := v.Remove("f"); err != nil {
				t.Fatal(err)
			}
			if v.Exists("f") {
				t.Fatal("file exists after Remove")
			}
		})
	}
}

func TestVolumeRenameReplacesDestination(t *testing.T) {
	for name, v := range volumes(t) {
		t.Run(name, func(t *testing.T) {
			if err := WriteAll(v, "a", []byte("new")); err != nil {
				t.Fatal(err)
			}
			if err := WriteAll(v, "b", []byte("old")); err != nil {
				t.Fatal(err)
			}
			if err := v.Rename("a", "b"); err != nil {
				t.Fatal(err)
			}
			if v.Exists("a") {
				t.Fatal("source still exists after rename")
			}
			got, err := ReadAll(v, "b")
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "new" {
				t.Fatalf("dst = %q, want \"new\"", got)
			}
		})
	}
}

func TestVolumeCreateTruncatesOnClose(t *testing.T) {
	for name, v := range volumes(t) {
		t.Run(name, func(t *testing.T) {
			if err := WriteAll(v, "f", []byte("long original content")); err != nil {
				t.Fatal(err)
			}
			if err := WriteAll(v, "f", []byte("short")); err != nil {
				t.Fatal(err)
			}
			got, _ := ReadAll(v, "f")
			if string(got) != "short" {
				t.Fatalf("after rewrite: %q", got)
			}
		})
	}
}

func TestVolumeWriterVisibilityOnlyAfterClose(t *testing.T) {
	for name, v := range volumes(t) {
		t.Run(name, func(t *testing.T) {
			w, err := v.Create("f")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Write([]byte("partial")); err != nil {
				t.Fatal(err)
			}
			if v.Exists("f") {
				t.Fatal("half-written file is visible")
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if !v.Exists("f") {
				t.Fatal("file invisible after Close")
			}
		})
	}
}

func TestVolumeAbortDiscards(t *testing.T) {
	for name, v := range volumes(t) {
		t.Run(name, func(t *testing.T) {
			w, err := v.Create("f")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Write([]byte("doomed")); err != nil {
				t.Fatal(err)
			}
			if err := w.Abort(); err != nil {
				t.Fatal(err)
			}
			if v.Exists("f") {
				t.Fatal("aborted file is visible")
			}
			// Close after Abort is a documented no-op.
			if err := w.Close(); err != nil {
				t.Fatalf("Close after Abort: %v", err)
			}
			// Writes after Abort fail.
			if _, err := w.Write([]byte("x")); err == nil {
				t.Fatal("write after Abort succeeded")
			}
		})
	}
}

func TestVolumeAbortAfterCloseFails(t *testing.T) {
	for name, v := range volumes(t) {
		t.Run(name, func(t *testing.T) {
			w, _ := v.Create("f")
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if err := w.Abort(); err == nil {
				t.Fatal("Abort after Close succeeded")
			}
			if err := w.Close(); err == nil {
				t.Fatal("double Close succeeded")
			}
		})
	}
}

func TestVolumeList(t *testing.T) {
	for name, v := range volumes(t) {
		t.Run(name, func(t *testing.T) {
			for _, f := range []string{"charlie", "alpha", "bravo"} {
				if err := WriteAll(v, f, []byte(f)); err != nil {
					t.Fatal(err)
				}
			}
			got := v.List()
			want := []string{"alpha", "bravo", "charlie"}
			if len(got) != len(want) {
				t.Fatalf("List = %v", got)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("List = %v, want %v", got, want)
				}
			}
		})
	}
}

func TestVolumeListHidesPartials(t *testing.T) {
	for name, v := range volumes(t) {
		t.Run(name, func(t *testing.T) {
			w, _ := v.Create("pending")
			w.Write([]byte("x"))
			if got := v.List(); len(got) != 0 {
				t.Fatalf("List shows partial file: %v", got)
			}
			w.Abort()
		})
	}
}

func TestVolumeRoundTripProperty(t *testing.T) {
	for name, v := range volumes(t) {
		t.Run(name, func(t *testing.T) {
			i := 0
			f := func(data []byte) bool {
				i++
				name := fmt.Sprintf("p%d", i)
				if err := WriteAll(v, name, data); err != nil {
					return false
				}
				got, err := ReadAll(v, name)
				return err == nil && bytes.Equal(got, data)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestVolumeConcurrentReadersAndWriters(t *testing.T) {
	// Models the FastBFS pattern: the stay writer thread writes files
	// while the main thread reads others.
	for name, v := range volumes(t) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			errs := make(chan error, 16)
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					name := fmt.Sprintf("g%d", g)
					payload := bytes.Repeat([]byte{byte(g)}, 4096)
					for i := 0; i < 20; i++ {
						if err := WriteAll(v, name, payload); err != nil {
							errs <- err
							return
						}
						got, err := ReadAll(v, name)
						if err != nil {
							errs <- err
							return
						}
						if !bytes.Equal(got, payload) {
							errs <- fmt.Errorf("goroutine %d: corrupt read", g)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

func TestMemFailWrites(t *testing.T) {
	v := NewMem()
	boom := errors.New("boom")
	v.FailWrites(func(name string, written int64) error {
		if name == "bad" && written >= 4 {
			return boom
		}
		return nil
	})
	if err := WriteAll(v, "good", []byte("fine")); err != nil {
		t.Fatalf("unaffected file failed: %v", err)
	}
	w, _ := v.Create("bad")
	if _, err := w.Write([]byte("1234")); err != nil {
		t.Fatalf("first write failed early: %v", err)
	}
	if _, err := w.Write([]byte("5678")); !errors.Is(err, boom) {
		t.Fatalf("injected fault not surfaced: %v", err)
	}
	w.Abort()
	v.FailWrites(nil)
	if err := WriteAll(v, "bad", []byte("ok now")); err != nil {
		t.Fatalf("after disabling hook: %v", err)
	}
}

func TestMemTotalBytes(t *testing.T) {
	v := NewMem()
	WriteAll(v, "a", make([]byte, 100))
	WriteAll(v, "b", make([]byte, 28))
	if got := v.TotalBytes(); got != 128 {
		t.Fatalf("TotalBytes = %d, want 128", got)
	}
}

func TestOSRejectsPathTraversal(t *testing.T) {
	v, err := NewOS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", "a/b", `a\b`, "../escape"} {
		if _, err := v.Create(name); err == nil {
			t.Errorf("Create(%q) succeeded", name)
		}
	}
}

func TestReaderAfterClose(t *testing.T) {
	v := NewMem()
	WriteAll(v, "f", []byte("data"))
	r, _ := v.Open("f")
	r.Close()
	if _, err := r.Read(make([]byte, 4)); err == nil || err == io.EOF {
		t.Fatalf("read after close: err = %v, want failure", err)
	}
}

// TestReadersReadRanges: every volume's reader, and the counting and
// faulting wrappers over it, reads ranges (io.ReaderAt): the bytes at the
// offset, io.EOF past the end; the counting volume counts what a ranged
// read moves, and the faulting one faults it, transiently or for good.
func TestReadersReadRanges(t *testing.T) {
	for name, v := range volumes(t) {
		t.Run(name, func(t *testing.T) {
			if err := WriteAll(v, "f", []byte("0123456789")); err != nil {
				t.Fatal(err)
			}
			cv := NewCounting(v, "c")
			r, err := cv.Open("f")
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			p := make([]byte, 4)
			if n, err := r.(io.ReaderAt).ReadAt(p, 3); n != 4 || err != nil || string(p) != "3456" {
				t.Fatalf("ReadAt(3) = %d %q %v", n, p[:n], err)
			}
			if n, err := r.(io.ReaderAt).ReadAt(p, 8); n != 2 || err != io.EOF {
				t.Fatalf("ReadAt past the end = %d, %v; want 2, io.EOF", n, err)
			}
			if st := cv.Stats(); st.BytesRead != 6 || st.ReadOps != 1 {
				t.Fatalf("counted %d bytes in %d ops, want 6 in 1", st.BytesRead, st.ReadOps)
			}
			for _, spec := range []FaultSpec{{Seed: 1, ReadP: 1}, {Seed: 1, PReadP: 1}} {
				fr, err := NewFaulty(v, spec).Open("f")
				if err != nil {
					t.Fatal(err)
				}
				if _, err := fr.(io.ReaderAt).ReadAt(p, 0); err == nil || IsTransient(err) != (spec.ReadP > 0) {
					t.Fatalf("%+v: ReadAt err = %v", spec, err)
				}
				fr.Close()
			}
		})
	}
}

// TestReadAllAllocatesTheFile: ReadAll reads into one slice of the file's
// size, so a 100-byte file — a graph's config — costs well under a KiB a
// read, where a copy buffer would cost 64 KiB whatever the file.
func TestReadAllAllocatesTheFile(t *testing.T) {
	v := NewMem()
	want := bytes.Repeat([]byte{7}, 100)
	if err := WriteAll(v, "small.conf", want); err != nil {
		t.Fatal(err)
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		got, err := ReadAll(v, "small.conf")
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read %q, %v", got, err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got >= 1<<10 {
		t.Errorf("a read of a 100-byte file allocates %d B, want under 1 KiB", got)
	}
}
