package graph

import (
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"fastbfs/internal/errs"
	"fastbfs/internal/storage"
)

// fbc1PermBytes is a .perm in the FBC1 layout stored before the FBD1 one,
// which LoadPerm no longer reads: the stored→original ids, 4 B each, raw in
// one frame.
func fbc1PermBytes(origOf []VertexID) []byte {
	var b []byte
	for _, v := range origOf {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return FrameAll(b)
}

// loadPermBytes loads b as the permutation sidecar of a graph of vertices.
func loadPermBytes(b []byte, vertices uint64) (*Permutation, error) {
	vol := storage.NewMem()
	if err := storage.WriteAll(vol, PermFileName("g"), b); err != nil {
		return nil, err
	}
	return LoadPerm(vol, "g", vertices)
}

// TestPermLayoutsLoad: LoadPerm loads the FBD1 permutation StorePerm writes,
// for an even and an odd vertex count (whose FBD1 ids end on a pad), as the
// mapping that was stored, and rejects the FBC1 one stored before it as
// errs.ErrCorrupted.
func TestPermLayoutsLoad(t *testing.T) {
	for _, vertices := range []uint64{3000, 3001} {
		want := DegreePermutation(vertices, skewedEdges(uint32(vertices), 20_000))
		vol := storage.NewMem()
		if err := StorePerm(vol, "g", want); err != nil {
			t.Fatal(err)
		}
		fbd1, err := storage.ReadAll(vol, PermFileName("g"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := loadPermBytes(fbd1, vertices)
		if err != nil || !slices.Equal(got.origOf, want.origOf) {
			t.Fatalf("%d vertices (%d bytes): loaded %v, err %v", vertices, len(fbd1), got != nil, err)
		}
		if _, err := loadPermBytes(fbc1PermBytes(want.origOf), vertices); !errors.Is(err, errs.ErrCorrupted) {
			t.Fatalf("%d vertices: FBC1 permutation: err %v, want ErrCorrupted", vertices, err)
		}
		if _, err := loadPermBytes(fbd1, vertices+1); !errors.Is(err, errs.ErrCorrupted) {
			t.Fatalf("%d vertices' permutation loaded for %d: %v", vertices, vertices+1, err)
		}
	}
}

// permVertices are the vertex counts FuzzPerm loads against, odd and even.
var permVertices = []uint64{5, 8}

func FuzzPerm(f *testing.F) {
	// The permutation sidecar (.perm) every reordered run translates its
	// root and its tree through. Arbitrary bytes either load as a bijection
	// on the vertex count or fail with errs.ErrCorrupted; the loader never
	// panics; an FBC1 file, the layout stored before FBD1, never loads. The
	// corpus holds a valid permutation of each count in each layout, FBD1
	// and FBC1.
	for which, n := range permVertices {
		origOf := make([]VertexID, n)
		for i := range origOf {
			origOf[i] = VertexID(n-1) - VertexID(i)
		}
		f.Add(uint8(which), words32(origOf))
		f.Add(uint8(which), fbc1PermBytes(origOf))
	}
	f.Fuzz(func(t *testing.T, which uint8, b []byte) {
		n := permVertices[int(which)%len(permVertices)]
		p, err := loadPermBytes(b, n)
		if err == nil && len(b) >= 4 && binary.LittleEndian.Uint32(b) == FrameMagic {
			t.Fatalf("%d vertices: an FBC1 permutation loaded", n)
		}
		if err != nil {
			if !errors.Is(err, errs.ErrCorrupted) {
				t.Fatalf("%d vertices: error %v does not wrap ErrCorrupted", n, err)
			}
			return
		}
		seen := make([]bool, n)
		for stored := range n {
			orig := p.ToOrig(VertexID(stored))
			if uint64(orig) >= n || seen[orig] || p.ToStored(orig) != VertexID(stored) {
				t.Fatalf("%d vertices: stored %d maps to %d, not a bijection", n, stored, orig)
			}
			seen[orig] = true
		}
	})
}
