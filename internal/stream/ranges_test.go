package stream

import (
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"fastbfs/internal/disksim"
	"fastbfs/internal/errs"
	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
)

// readRanges scans ranges of name to the end, returning the edges and the
// scanner's byte count.
func readRanges(t *testing.T, vol storage.Volume, name string, tm Timing, ranges []Range, magic uint32) ([]graph.Edge, int64, error) {
	t.Helper()
	sc, err := NewRangeScanner(vol, name, tm, 64, ranges, magic) // 8 edges a refill
	if err != nil {
		return nil, 0, err
	}
	defer sc.Close()
	var got []graph.Edge
	chunk := make([]graph.Edge, 5)
	for {
		n, err := sc.NextChunk(chunk)
		if err != nil {
			return got, sc.BytesRead(), err
		}
		if n == 0 {
			return got, sc.BytesRead(), nil
		}
		got = append(got, chunk[:n]...)
	}
}

// TestRangeScannerReadsItsRanges: a range scanner yields exactly the records
// of its ranges, in order — raw ones of a fixed file, the frames of an FBC1
// one checked, of a delta one checked and decoded — counts exactly their bytes, costs the device
// one positioning a range, survives transient faults, and gives back every
// buffer.
func TestRangeScannerReadsItsRanges(t *testing.T) {
	audit := AuditPools()
	defer audit.Stop()
	edges := makeEdges(1000)
	vol := storage.NewMem()
	writeEdgesFile(t, vol, "fixed", edges)
	w, err := NewCodecEdgeWriter(vol, "delta", Timing{}, 800, graph.CodecDelta) // a frame of 100 edges a flush
	if err == nil {
		err = w.AppendChunk(edges)
	}
	if err == nil {
		err = w.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	var chunks [][]byte // the FBC1 file: a frame of 100 raw edges each
	for lo := 0; lo < len(edges); lo += 100 {
		chunks = append(chunks, graph.EdgesToBytes(edges[lo:lo+100]))
	}
	if err := storage.WriteAll(vol, "fbc1", graph.FrameAll(chunks...)); err != nil {
		t.Fatal(err)
	}
	spans := map[string]func(f, g int) Range{}
	for _, name := range []string{"delta", "fbc1"} {
		file, err := storage.ReadAll(vol, name)
		if err != nil {
			t.Fatal(err)
		}
		var frames []int64 // offset of every frame, then of the terminator
		for off := int64(4); ; off += 8 + int64(binary.LittleEndian.Uint32(file[off:])) {
			frames = append(frames, off)
			if binary.LittleEndian.Uint32(file[off:]) == 0 {
				break
			}
		}
		spans[name] = func(f, g int) Range { return Range{Off: frames[f], Len: frames[g] - frames[f]} }
	}
	for _, tc := range []struct {
		name   string
		ranges []Range
		magic  uint32
		want   []graph.Edge
	}{
		{"fixed", []Range{{80, 80}, {800, 8}, {7920, 80}}, 0,
			slices.Concat(edges[10:20], edges[100:101], edges[990:1000])},
		{"delta", []Range{spans["delta"](1, 3), spans["delta"](9, 10)}, graph.FrameMagicDelta, slices.Concat(edges[100:300], edges[900:1000])},
		{"fbc1", []Range{spans["fbc1"](0, 1), spans["fbc1"](4, 6)}, graph.FrameMagic, slices.Concat(edges[:100], edges[400:600])},
		{"nothing", nil, graph.FrameMagicDelta, nil},
	} {
		var lens int64
		for _, r := range tc.ranges {
			lens += r.Len
		}
		name := map[uint32]string{0: "fixed", graph.FrameMagicDelta: "delta", graph.FrameMagic: "fbc1"}[tc.magic]
		for _, faults := range []bool{false, true} {
			tm, _ := timing(disksim.HDD("d"))
			tm.Bufs = NewBufPool()
			var v storage.Volume = vol
			if faults {
				v = storage.NewFaulty(vol, storage.FaultSpec{Seed: 3, ReadP: 0.3})
				tm.Retry = &Retrier{Attempts: 30, Base: 1, Max: 1}
			}
			got, read, err := readRanges(t, v, name, tm, tc.ranges, tc.magic)
			if err != nil {
				t.Fatalf("%s faults=%v: %v", tc.name, faults, err)
			}
			if !slices.Equal(got, tc.want) {
				t.Fatalf("%s faults=%v: read %d edges, not its ranges' %d", tc.name, faults, len(got), len(tc.want))
			}
			if dev := tm.Device; read != lens || dev.BytesRead() != lens || dev.Seeks() != int64(len(tc.ranges)) {
				t.Fatalf("%s faults=%v: counted %d bytes, the device %d in %d seeks; the ranges hold %d bytes in %d",
					tc.name, faults, read, dev.BytesRead(), dev.Seeks(), lens, len(tc.ranges))
			}
			if faults && tc.ranges != nil && tm.Retry.Retries() == 0 {
				t.Fatalf("%s: no fault was retried", tc.name)
			}
		}
	}
	if n := audit.Outstanding(); n != 0 {
		t.Fatalf("%d buffers outstanding after every scanner closed", n)
	}
	// A range the file ends inside was promised bytes it does not hold.
	tm, _ := timing(disksim.HDD("d"))
	if _, _, err := readRanges(t, vol, "fixed", tm, []Range{{7992, 16}}, 0); !errors.Is(err, errs.ErrCorrupted) {
		t.Fatalf("range past the end: err = %v, want ErrCorrupted", err)
	}
}
