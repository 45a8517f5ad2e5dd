package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"fastbfs/internal/errs"
)

// sortedEdges is a source-sorted edge list shaped like a degree-ordered
// stored file: low sources carry many edges, each source's destinations
// rise.
func sortedEdges(vertices, edges int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	var raw []byte
	for src := 0; len(raw) < edges*EdgeBytes; src = (src + 1) % vertices {
		dsts := make([]int, 1+rng.Intn(24)+1024/(src+1))
		for i := range dsts {
			dsts[i] = rng.Intn(vertices)
		}
		slices.Sort(dsts)
		for _, d := range dsts {
			raw = binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(raw, uint32(src)), uint32(d))
		}
	}
	return raw[:edges*EdgeBytes]
}

// pairsOnly is raw encoded in the pairs layout alone, the only layout a
// block had before runs.
func pairsOnly(raw []byte) []byte {
	var out []byte
	for off := 0; off < len(raw); off += DeltaBlockMaxEdges * EdgeBytes {
		blk := raw[off:min(off+DeltaBlockMaxEdges*EdgeBytes, len(raw))]
		body := appendPairs(binary.AppendUvarint(nil, uint64(len(blk)/EdgeBytes)), blk)
		out = append(binary.AppendUvarint(out, uint64(len(body))), body...)
	}
	return out
}

// blockLayouts returns, per block of enc, whether it is in the runs layout.
func blockLayouts(t *testing.T, enc []byte) []bool {
	t.Helper()
	var runs []bool
	for len(enc) > 0 {
		_, r, _, total, err := blockHeader(enc)
		if err != nil {
			t.Fatal(err)
		}
		runs, enc = append(runs, r), enc[total:]
	}
	return runs
}

// TestDeltaBlockLayouts: a block is written in the smaller layout, pairs
// on a tie; either way it decodes to its input.
func TestDeltaBlockLayouts(t *testing.T) {
	sorted := sortedEdges(1<<12, 3*DeltaBlockMaxEdges+5, 1)
	shuffled := bytes.Clone(sorted)
	rng := rand.New(rand.NewSource(2))
	rng.Shuffle(len(shuffled)/EdgeBytes, func(i, j int) {
		a, b := shuffled[i*EdgeBytes:(i+1)*EdgeBytes], shuffled[j*EdgeBytes:(j+1)*EdgeBytes]
		var tmp [EdgeBytes]byte
		copy(tmp[:], a)
		copy(a, b)
		copy(b, tmp[:])
	})
	for _, tc := range []struct {
		name string
		raw  []byte
		runs bool
	}{
		{"source-sorted", sorted, true},
		{"shuffled", shuffled, false},
		{"one record", sorted[:EdgeBytes], false}, // runs' count field is a byte longer
		{"duplicates", bytes.Repeat(sorted[:EdgeBytes], 300), true},
	} {
		enc, err := EncodeDeltaBlocks(tc.raw)
		if err != nil {
			t.Fatal(err)
		}
		pairs := pairsOnly(tc.raw)
		for i, r := range blockLayouts(t, enc) {
			if r != tc.runs {
				t.Errorf("%s: block %d in runs=%v, want %v", tc.name, i, r, tc.runs)
			}
		}
		if tc.runs && len(enc) >= len(pairs) || !tc.runs && !bytes.Equal(enc, pairs) {
			t.Errorf("%s: %d encoded bytes against %d in pairs", tc.name, len(enc), len(pairs))
		}
		if got, err := DecodeDeltaStream(enc); err != nil || !bytes.Equal(got, tc.raw) {
			t.Errorf("%s: round trip: %v", tc.name, err)
		}
	}
	enc, _ := EncodeDeltaBlocks(sorted)
	if per := float64(len(enc)) / float64(len(sorted)/EdgeBytes); per > 1.6 {
		t.Errorf("source-sorted edges at %.2f B/edge, want runs to hold them under 1.6", per)
	}
}

// runsBlock frames a runs-layout body with its count field and length.
func runsBlock(count uint64, body ...uint64) []byte {
	b := binary.AppendUvarint(nil, DeltaBlockMaxEdges+count)
	for _, v := range body {
		b = binary.AppendUvarint(b, v)
	}
	return append(binary.AppendUvarint(nil, uint64(len(b))), b...)
}

// TestMalformedRunsBlocks: every malformed runs block is ErrCorrupted, and
// the well-formed one beside them decodes.
func TestMalformedRunsBlocks(t *testing.T) {
	// Two runs: source 3 to destinations 5, 7, 7; source 1 to destination 9.
	good := runsBlock(4, zigzag(3), 2, 5, 2, 0, zigzag(-2), 0, 9)
	want := []byte{3, 0, 0, 0, 5, 0, 0, 0, 3, 0, 0, 0, 7, 0, 0, 0, 3, 0, 0, 0, 7, 0, 0, 0, 1, 0, 0, 0, 9, 0, 0, 0}
	if got, err := DecodeDeltaStream(good); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("well-formed runs block: %v, %v", got, err)
	}
	for name, b := range map[string][]byte{
		"run past the count":    runsBlock(2, zigzag(3), 2, 5, 2, 0),
		"second run past it":    runsBlock(2, zigzag(3), 0, 5, zigzag(1), 1, 6, 1),
		"runs short of it":      runsBlock(3, zigzag(3), 1, 5, 2),
		"source above 2^32-1":   runsBlock(1, zigzag(1<<32), 0, 5),
		"source below 0":        runsBlock(2, zigzag(3), 0, 5, zigzag(-4), 0, 5),
		"first dst above it":    runsBlock(1, zigzag(3), 0, 1<<32),
		"gap overflow":          runsBlock(2, zigzag(3), 1, 1<<32-2, 2),
		"gap past uint64":       runsBlock(2, zigzag(3), 1, 5, 1<<64-1),
		"truncated":             runsBlock(4, zigzag(3), 2, 5, 2, 0, zigzag(-2), 0)[:len(good)-1],
		"truncated run":         runsBlock(4, zigzag(3), 2, 5, 2, 0, zigzag(-2), 0),
		"trailing bytes":        runsBlock(4, zigzag(3), 2, 5, 2, 0, zigzag(-2), 0, 9, 0),
		"count above 2 x 4096":  runsBlock(DeltaBlockMaxEdges+1, zigzag(3), 0, 5),
		"count of 0 runs":       runsBlock(0, zigzag(3), 0, 5),
		"count above body size": runsBlock(9, zigzag(3), 8, 5),
	} {
		if _, err := DecodeDeltaStream(b); !errors.Is(err, errs.ErrCorrupted) {
			t.Errorf("%s: %v, want ErrCorrupted", name, err)
		}
	}
}

// TestDeltaDecodeIntoStackBuffer: a block decodes into a caller's array
// without moving it to the heap — readWords decodes each of a run's
// metadata files through one.
func TestDeltaDecodeIntoStackBuffer(t *testing.T) {
	enc, err := EncodeDeltaBlocks(sortedEdges(1<<12, DeltaBlockMaxEdges, 1))
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		var blk [DeltaBlockMaxEdges]Edge
		count, _, _ := DeltaBlockLen(enc)
		if _, err := DecodeDeltaEdges(blk[:], enc, 0, count, nil); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("%v allocations a decode", allocs)
	}
}

// BenchmarkDeltaDecode decodes a source-sorted file's blocks, the shape of
// a stored or tails file, straight into edges in one call, as a pass's
// worker decodes a chunk; ns/op over the edges is the cost per edge.
func BenchmarkDeltaDecode(b *testing.B) {
	benchDecode(b, nil)
}

// oddSources keeps the runs of odd sources.
type oddSources struct{}

func (oddSources) Keep(src VertexID, _ int) (bool, error) { return src%2 == 1, nil }
func (oddSources) Last(VertexID) error                    { return nil }

// BenchmarkDeltaDecodeHinted decodes the same file with a hint that keeps
// half the runs.
func BenchmarkDeltaDecodeHinted(b *testing.B) {
	benchDecode(b, oddSources{})
}

func benchDecode(b *testing.B, hint RunHint) {
	raw := sortedEdges(1<<17, 1<<20, 1)
	enc, err := EncodeDeltaBlocks(raw)
	if err != nil {
		b.Fatal(err)
	}
	out := make([]Edge, len(raw)/EdgeBytes)
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err = DecodeDeltaEdges(out, enc, 0, len(out), hint); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(out)), "ns/edge")
}

// BenchmarkDeltaEncode encodes the same file.
func BenchmarkDeltaEncode(b *testing.B) {
	raw := sortedEdges(1<<17, 1<<20, 1)
	var enc []byte
	b.SetBytes(int64(len(raw)))
	for i := 0; i < b.N; i++ {
		enc, _ = AppendDeltaBlocks(enc[:0], raw)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(raw)/EdgeBytes), "ns/edge")
}
