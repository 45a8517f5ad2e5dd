package stream

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"fastbfs/internal/disksim"
	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
)

// createFailer is a volume whose Create of one name fails — the fault
// storage.Faulty never injects.
type createFailer struct {
	storage.Volume
	name string
}

var errCreate = errors.New("no inode left")

func (v createFailer) Create(name string) (storage.Writer, error) {
	if name == v.name {
		return nil, errCreate
	}
	return v.Volume.Create(name)
}

// permanentFault reports whether err carries storage.Faulty's permanent
// write fault.
func permanentFault(err error) bool {
	var fe *storage.FaultError
	return errors.As(err, &fe) && !fe.Transient
}

// TestWriterSetFaultLeavesNothing: a create, append or close fault at
// partition k of a writer set aborts every writer, leaves no file on the
// volume — not even the ones partitions before k had already published —
// and no pooled buffer outstanding, for raw and delta-coded writers (the
// latter hold an encode buffer each on top of the record buffer).
func TestWriterSetFaultLeavesNothing(t *testing.T) {
	const parts, bufSize = 4, 64 // 8 edges a flush
	nameFor := func(p int) string { return fmt.Sprintf("part_%d", p) }
	for _, codec := range []graph.Codec{graph.CodecFixed, graph.CodecDelta} {
		for _, stage := range []string{"create", "append", "close"} {
			for _, k := range []int{0, 1, parts - 1} {
				t.Run(fmt.Sprintf("%s/%s/k=%d", codec, stage, k), func(t *testing.T) {
					audit := audited(t)
					mem := storage.NewMem()
					var vol storage.Volume = storage.NewFaulty(mem, storage.FaultSpec{PWriteP: 1, Match: nameFor(k)})
					if stage == "create" {
						vol = createFailer{mem, nameFor(k)}
					}
					tm := Timing{Bufs: NewBufPool()}
					ws, err := OpenWriterSet(vol, parts, nameFor, func(name string) (*Writer[graph.Edge], error) {
						return NewCodecEdgeWriter(vol, name, tm, bufSize, codec)
					})
					if stage == "create" {
						if !errors.Is(err, errCreate) || ws != nil {
							t.Fatalf("open = %v, %v; want the create fault and no set", ws, err)
						}
					} else {
						if err != nil {
							t.Fatal(err)
						}
						defer ws.Abort() // what every caller defers: a no-op by now
						// One edge a partition never flushes before Close; twenty do.
						perPart := 1
						if stage == "append" {
							perPart = 20
						}
						for i := 0; i < perPart && err == nil; i++ {
							for p := 0; p < parts && err == nil; p++ {
								err = ws.W[p].Append(graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(p)})
							}
						}
						if stage == "append" {
							if !permanentFault(err) {
								t.Fatalf("append: err = %v, want the permanent write fault", err)
							}
							ws.Abort()
						} else if err = ws.Close(); !permanentFault(err) {
							t.Fatalf("close: err = %v, want the permanent write fault", err)
						}
						for p, w := range ws.W {
							if err := w.Append(graph.Edge{}); err == nil || !strings.Contains(err.Error(), "closed writer") {
								t.Errorf("writer %d still open after the fault: append = %v", p, err)
							}
						}
					}
					if files := mem.List(); len(files) != 0 {
						t.Errorf("files left on the volume: %v", files)
					}
					if n := audit.Outstanding(); n != 0 {
						t.Errorf("%d pooled buffers outstanding", n)
					}
				})
			}
		}
	}
}

// TestWriterSetAccounts: the set's counts are its writers' per partition,
// its device is charged the bytes of all of them, and Abort after a clean
// Close leaves the published files alone.
func TestWriterSetAccounts(t *testing.T) {
	audited(t)
	vol := storage.NewMem()
	dev := disksim.HDD("d")
	tm, _ := timing(dev)
	tm.Bufs = NewBufPool()
	ws, err := OpenWriterSet(vol, 3, func(p int) string { return fmt.Sprintf("e%d", p) },
		func(name string) (*Writer[graph.Edge], error) { return NewEdgeWriter(vol, name, tm, 64) })
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Abort()
	for i := 0; i < 30; i++ {
		if err := ws.W[i%2].Append(graph.Edge{Src: graph.VertexID(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ws.Close(); err != nil {
		t.Fatal(err)
	}
	if c := ws.Counts(); c[0] != 15 || c[1] != 15 || c[2] != 0 {
		t.Errorf("counts = %v, want [15 15 0]", c)
	}
	if b := dev.BytesWritten(); b != 30*graph.EdgeBytes {
		t.Errorf("device bytes = %d, want %d", b, 30*graph.EdgeBytes)
	}
	ws.Abort()
	if files := vol.List(); len(files) != 3 {
		t.Errorf("files after close and abort: %v, want all three", files)
	}
}
