package graph

import (
	"bytes"
	"slices"
	"testing"
)

// Fuzz harnesses for the raw binary formats (§III). The encode side is
// the inverse of the decode side byte-for-byte — the determinism
// contract of the parallel scatter path leans on this: update and stay
// files are compared as bytes, so any decode/encode asymmetry would
// make "byte-identical" weaker than "record-identical".

func FuzzEdgeBytesRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{1, 0, 0}) // ragged: must be rejected, not mangled
	f.Fuzz(func(t *testing.T, b []byte) {
		edges, err := BytesToEdges(b)
		if len(b)%EdgeBytes != 0 {
			if err == nil {
				t.Fatalf("BytesToEdges accepted %d ragged bytes", len(b))
			}
			return
		}
		if err != nil {
			t.Fatalf("BytesToEdges rejected %d whole records: %v", len(b)/EdgeBytes, err)
		}
		if out := EdgesToBytes(edges); !bytes.Equal(out, b) {
			t.Fatalf("EdgesToBytes(BytesToEdges(b)) != b for %d bytes", len(b))
		}
		// The streaming reader must agree with the slice decoder.
		streamed, err := ReadEdges(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("ReadEdges: %v", err)
		}
		if len(streamed) != len(edges) {
			t.Fatalf("ReadEdges decoded %d edges, BytesToEdges %d", len(streamed), len(edges))
		}
		for i := range streamed {
			if streamed[i] != edges[i] {
				t.Fatalf("edge %d: ReadEdges %v vs BytesToEdges %v", i, streamed[i], edges[i])
			}
		}
	})
}

func FuzzReadEdgesRagged(f *testing.F) {
	f.Add([]byte{1, 2, 3})
	f.Add(make([]byte, EdgeBytes+1))
	f.Fuzz(func(t *testing.T, b []byte) {
		edges, err := ReadEdges(bytes.NewReader(b))
		if len(b)%EdgeBytes == 0 {
			if err != nil {
				t.Fatalf("ReadEdges rejected aligned input: %v", err)
			}
			return
		}
		if err == nil {
			t.Fatalf("ReadEdges accepted %d trailing bytes", len(b)%EdgeBytes)
		}
		// Whole records before the ragged tail still decode.
		if want := len(b) / EdgeBytes; len(edges) != want {
			t.Fatalf("decoded %d edges before the error, want %d", len(edges), want)
		}
	})
}

func FuzzUpdateRoundTrip(f *testing.F) {
	f.Add(uint32(0), uint32(0))
	f.Add(uint32(1), uint32(0xFFFFFFFF))
	f.Add(uint32(0xFFFFFFFF), uint32(7))
	f.Fuzz(func(t *testing.T, dst, parent uint32) {
		u := Update{Dst: VertexID(dst), Parent: VertexID(parent)}
		var b [UpdateBytes]byte
		PutUpdate(b[:], u)
		if got := GetUpdate(b[:]); got != u {
			t.Fatalf("GetUpdate(PutUpdate(%v)) = %v", u, got)
		}
	})
}

func FuzzFrameFormat(f *testing.F) {
	// The framed container behind update and stay files. Three
	// properties, none of which may panic on any input:
	//  1. arbitrary bytes fed to the deframer either decode or fail
	//     cleanly (wrapping ErrCorrupted for integrity violations);
	//  2. framing any payload split at any point round-trips exactly;
	//  3. every strict truncation of a framed stream is detected.
	f.Add([]byte{}, uint16(0))
	f.Add([]byte("hello framed world"), uint16(5))
	f.Add(bytes.Repeat([]byte{0xAA}, 1024), uint16(512))
	f.Add([]byte{0x46, 0x42, 0x43, 0x31}, uint16(1)) // payload that spells the magic
	f.Fuzz(func(t *testing.T, payload []byte, split uint16) {
		// Property 1: the deframer survives the raw fuzz payload as a
		// (usually invalid) framed stream.
		if out, err := DeframeAll(payload); err == nil {
			// Accepted: re-framing the output must produce a decodable
			// stream with the same payload.
			again, err2 := DeframeAll(FrameAll(out))
			if err2 != nil || !bytes.Equal(again, out) {
				t.Fatalf("re-frame of accepted stream failed: %v", err2)
			}
		}

		// Property 2: round-trip with a fuzz-chosen chunk split.
		cut := int(split)
		if cut > len(payload) {
			cut = len(payload)
		}
		enc := FrameAll(payload[:cut], payload[cut:])
		got, err := DeframeAll(enc)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("round trip: %d bytes out, %d in", len(got), len(payload))
		}

		// Property 3: truncation is always detected.
		if trunc := int(split) % len(enc); trunc < len(enc) {
			if _, err := DeframeAll(enc[:trunc]); err == nil {
				t.Fatalf("truncation to %d of %d bytes went undetected", trunc, len(enc))
			}
		}
	})
}

func FuzzReverseFormat(f *testing.F) {
	// The transposed graph StoreGraph writes, .rev and .ridx: the bottom-up
	// engines trust it for correctness (a wrong in-edge silently corrupts
	// parent trees), so it must read back as exactly the transpose, sorted by
	// target and then by source, under either codec, and every truncation or
	// bit flip of either file must fail the read — never decode quietly.
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0}, uint16(3))
	f.Add([]byte{7, 0, 0, 0, 7, 0, 0, 0, 0, 1, 0, 0, 0xfe, 0, 0, 0}, uint16(11))
	f.Add(bytes.Repeat([]byte{0x05, 0, 0, 0}, 64), uint16(200))
	f.Fuzz(func(t *testing.T, b []byte, mut uint16) {
		const vertices = 61
		edges, err := BytesToEdges(b[:len(b)/EdgeBytes*EdgeBytes])
		if err != nil {
			t.Fatalf("aligned prefix rejected: %v", err)
		}
		for i := range edges {
			edges[i].Src, edges[i].Dst = edges[i].Src%vertices, edges[i].Dst%vertices
		}
		m := Meta{Name: "g", Vertices: vertices, Edges: uint64(len(edges)), Codec: []Codec{CodecFixed, CodecDelta}[mut%2]}
		sorted, _ := sortBySource(vertices, edges, nil)
		rev, ridx := reverseFiles(vertices, sorted, m.Codec)

		// Property 1: round trip. The files read back as the transpose.
		got, err := readTransposed(m, rev, ridx)
		if err != nil {
			t.Fatalf("%s: clean files rejected: %v", m.Codec, err)
		}
		if want := transpose(edges); !slices.Equal(got, want) {
			t.Fatalf("%s: read back %v, want the transpose %v", m.Codec, got, want)
		}

		// Properties 2 and 3: every strict truncation, and every bit flip, of
		// either file fails the read.
		for i, file := range [][]byte{rev, ridx} {
			cut, pos := int(mut/2)%len(file), int(mut/2)%len(file)
			bad := [2][]byte{rev, ridx}
			bad[i] = file[:cut]
			if _, err := readTransposed(m, bad[0], bad[1]); err == nil {
				t.Fatalf("%s: file %d truncated to %d of %d bytes went undetected", m.Codec, i, cut, len(file))
			}
			bad[i] = bytes.Clone(file)
			bad[i][pos] ^= 1 << (mut % 8)
			if _, err := readTransposed(m, bad[0], bad[1]); err == nil {
				t.Fatalf("%s: file %d with bit %d of byte %d flipped went undetected", m.Codec, i, mut%8, pos)
			}
		}
	})
}

func FuzzWEdgeBytesRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0x80, 0x3f})       // 1 -> 2 weight 1.0
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f}) // NaN payload
	f.Fuzz(func(t *testing.T, b []byte) {
		wedges, err := BytesToWEdges(b)
		if len(b)%WEdgeBytes != 0 {
			if err == nil {
				t.Fatalf("BytesToWEdges accepted %d ragged bytes", len(b))
			}
			return
		}
		if err != nil {
			t.Fatalf("BytesToWEdges rejected %d whole records: %v", len(b)/WEdgeBytes, err)
		}
		// Byte-level round trip must hold even for NaN weight payloads:
		// Put/Get use bit casts, never float arithmetic.
		if out := WEdgesToBytes(wedges); !bytes.Equal(out, b) {
			t.Fatalf("WEdgesToBytes(BytesToWEdges(b)) != b for %d bytes", len(b))
		}
	})
}
