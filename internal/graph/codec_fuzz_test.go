package graph

import (
	"bytes"
	"errors"
	"testing"

	"fastbfs/internal/errs"
)

func FuzzBlockCodec(f *testing.F) {
	// The delta block codec (CodecDelta). The engines trust it to be
	// order-preserving — trimming, chunk merges and the byte-identical
	// determinism contract all compare decoded record streams — so the
	// codec must round-trip exactly, survive arbitrary input without
	// panicking, classify every malformed block as errs.ErrCorrupted,
	// and (through the FBD1 frame CRC) never let a flipped byte decode
	// back to the clean stream.
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0}, uint16(3))
	f.Add([]byte{5, 0, 0, 0, 1, 0, 0, 0, 5, 0, 0, 0, 2, 0, 0, 0, 5, 0, 0, 0, 3, 0, 0, 0}, uint16(9))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x02}, uint16(96))
	f.Add(bytes.Repeat([]byte{0x07, 0, 0, 0}, 64), uint16(200))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x7f}, uint16(1)) // header past the body cap
	// Runs-layout seeds: records that share a source in rising order, with
	// duplicates, a destination that falls mid-source (a second run of
	// the same source), an unsorted tail, and blocks of 1 and 4096 records.
	f.Add(sortedEdges(64, 40, 3), uint16(17))
	f.Add(append(bytes.Repeat([]byte{9, 0, 0, 0, 4, 0, 0, 0}, 20), 9, 0, 0, 0, 2, 0, 0, 0, 9, 0, 0, 0, 3, 0, 0, 0, 1, 0, 0, 0, 7, 0, 0, 0), uint16(40))
	f.Add(sortedEdges(1<<16, 1, 4), uint16(2))
	f.Add(sortedEdges(1<<12, DeltaBlockMaxEdges, 5), uint16(999))
	f.Add(sortedEdges(1<<12, DeltaBlockMaxEdges+1, 6), uint16(5000))
	f.Add(runsBlock(4, zigzag(3), 2, 5, 2, 0, zigzag(-2), 0, 9), uint16(7))
	f.Add(runsBlock(2, zigzag(3), 1, 1<<32-2, 2), uint16(3)) // gap overflow
	f.Fuzz(func(t *testing.T, b []byte, mut uint16) {
		// Property 1: the fuzz payload fed straight to the decoder as a
		// block stream either decodes or fails with ErrCorrupted — never
		// panics, never misclassifies. An accepted stream must decode to
		// whole records that survive a canonical re-encode round trip.
		if out, err := DecodeDeltaStream(b); err != nil {
			if !errors.Is(err, errs.ErrCorrupted) {
				t.Fatalf("decode error does not wrap ErrCorrupted: %v", err)
			}
		} else {
			reenc, err := EncodeDeltaBlocks(out)
			if err != nil {
				t.Fatalf("accepted stream decoded to ragged records: %v", err)
			}
			again, err := DecodeDeltaStream(reenc)
			if err != nil || !bytes.Equal(again, out) {
				t.Fatalf("canonical re-encode of accepted stream failed: %v", err)
			}
		}

		// Property 5 (for the payload here, for its clean encoding below):
		// a hinted decode shows its hint the same runs as a full one,
		// rejects exactly the streams the full one rejects, and yields as
		// many records, the full decode's where the hint keeps the source
		// and skip marks standing for exactly the rest.
		keep := func(v VertexID) bool { return uint32(v)>>(mut%7)&1 == uint32(mut>>8)&1 }
		checkHinted(t, b, keep)

		// Property 2: exact round trip of the aligned prefix.
		raw := b[:len(b)/EdgeBytes*EdgeBytes]
		enc, err := EncodeDeltaBlocks(raw)
		if err != nil {
			t.Fatalf("encoding %d whole records: %v", len(raw)/EdgeBytes, err)
		}
		got, err := DecodeDeltaStream(enc)
		if err != nil {
			t.Fatalf("clean stream rejected: %v", err)
		}
		if !bytes.Equal(got, raw) && !(len(got) == 0 && len(raw) == 0) {
			t.Fatalf("round trip: %d bytes out, %d in", len(got), len(raw))
		}
		// Each block is in the smaller layout: never past its pairs encoding.
		for e, p := enc, pairsOnly(raw); len(e) > 0; {
			_, _, _, et, err := blockHeader(e)
			_, _, _, pt, perr := blockHeader(p)
			if err != nil || perr != nil || et > pt {
				t.Fatalf("block of %d bytes against %d in pairs: %v, %v", et, pt, err, perr)
			}
			e, p = e[et:], p[pt:]
		}
		checkHinted(t, enc, keep)
		if len(enc) == 0 {
			return
		}

		// Property 3: truncation. Blocks are self-delimiting, so a cut at
		// a block boundary legitimately yields fewer records (the frame
		// CRC and the edge-count-vs-config check catch that layer); any
		// other cut must fail. Either way the decoded bytes are a strict
		// prefix of the input — never reordered or mangled records.
		if cut := int(mut) % len(enc); cut < len(enc) {
			out, err := DecodeDeltaStream(enc[:cut])
			if err == nil {
				if len(out) >= len(raw) || !bytes.Equal(out, raw[:len(out)]) {
					t.Fatalf("truncation to %d of %d bytes decoded %d bytes that are not a strict prefix",
						cut, len(enc), len(out))
				}
			} else if !errors.Is(err, errs.ErrCorrupted) {
				t.Fatalf("truncation error does not wrap ErrCorrupted: %v", err)
			}
		}

		// Property 4: inside the FBD1 container a flipped byte never
		// reproduces the clean block stream — the frame CRC is the
		// integrity layer the block caps merely backstop.
		framed := FrameAllMagic(FrameMagicDelta, enc)
		pos := int(mut) % len(framed)
		mutb := bytes.Clone(framed)
		mutb[pos] ^= 0x01
		if magic, payload, err := DeframeAllMagic(mutb); err == nil &&
			magic == FrameMagicDelta && bytes.Equal(payload, enc) {
			t.Fatalf("flipped byte %d of %d went undetected", pos, len(framed))
		}
	})
}

// runLog is a RunHint that keeps the sources keep accepts (nil: all) and
// logs every run it is shown.
type runLog struct {
	keep func(VertexID) bool
	runs [][3]uint64 // source, records, last destination
}

func (l *runLog) Keep(src VertexID, n int) (bool, error) {
	l.runs = append(l.runs, [3]uint64{uint64(src), uint64(n)})
	return l.keep == nil || l.keep(src), nil
}

func (l *runLog) Last(dst VertexID) error {
	l.runs[len(l.runs)-1][2] = uint64(dst)
	return nil
}

// decodeHinted decodes a block stream block by block under hint.
func decodeHinted(b []byte, hint RunHint) ([]byte, error) {
	var out []byte
	for len(b) > 0 {
		var n int
		var err error
		if out, n, err = DecodeDeltaBlock(out, b, hint); err != nil {
			return nil, err
		}
		b = b[n:]
	}
	return out, nil
}

// checkHinted holds a decode of b hinted by keep to the full decode of b
// (Property 5 of FuzzBlockCodec).
func checkHinted(t *testing.T, b []byte, keep func(VertexID) bool) {
	t.Helper()
	all, part := &runLog{}, &runLog{keep: keep}
	full, ferr := DecodeDeltaStream(b)
	logged, lerr := decodeHinted(b, all)
	got, err := decodeHinted(b, part)
	if (ferr == nil) != (err == nil) || (ferr == nil) != (lerr == nil) {
		t.Fatalf("full decode: %v; hinted, keeping all: %v; hinted: %v", ferr, lerr, err)
	}
	if err != nil && !errors.Is(err, errs.ErrCorrupted) {
		t.Fatalf("hinted decode error does not wrap ErrCorrupted: %v", err)
	}
	if len(all.runs) != len(part.runs) {
		t.Fatalf("%d runs shown keeping all, %d keeping some", len(all.runs), len(part.runs))
	}
	for i := range all.runs {
		if all.runs[i] != part.runs[i] {
			t.Fatalf("run %d: %v keeping all, %v keeping some", i, all.runs[i], part.runs[i])
		}
	}
	if err != nil {
		return
	}
	if len(logged) != len(full) || len(got) != len(full) {
		t.Fatalf("hinted decodes of %d and %d bytes, full %d", len(logged), len(got), len(full))
	}
	var runs uint64
	for _, r := range part.runs {
		runs += r[1]
	}
	if runs != uint64(len(full)/EdgeBytes) {
		t.Fatalf("runs of %d records in all, the decode %d", runs, len(full)/EdgeBytes)
	}
	starts := blockStarts(b)
	for i := 0; i < len(full); {
		want, rec := GetEdge(full[i:]), GetEdge(got[i:])
		if keep(want.Src) && want.Src != NoVertex {
			if rec != want {
				t.Fatalf("record %d: %v kept as %v", i/EdgeBytes, want, rec)
			}
			i += EdgeBytes
			continue
		}
		if rec.Src != NoVertex || rec.Dst == 0 || i+int(rec.Dst)*EdgeBytes > len(full) {
			t.Fatalf("record %d: %v dropped, %v in its place, not a skip mark", i/EdgeBytes, want, rec)
		}
		for end := i + int(rec.Dst)*EdgeBytes; i < end; i += EdgeBytes {
			if e := GetEdge(full[i:]); keep(e.Src) && e.Src != NoVertex {
				t.Fatalf("record %d: %v kept by the hint, under a skip mark", i/EdgeBytes, e)
			}
		}
		// A mark stands for the whole stretch of dropped records it starts
		// in its block.
		if e := GetEdge(full[min(i, len(full)-EdgeBytes):]); i < len(full) && !starts[i] && (!keep(e.Src) || e.Src == NoVertex) {
			t.Fatalf("record %d: %v dropped after a skip mark that ends before it", i/EdgeBytes, e)
		}
	}
}

// blockStarts is the offsets in its decode at which b's blocks start.
func blockStarts(b []byte) map[int]bool {
	starts := map[int]bool{}
	for at := 0; len(b) > 0; {
		count, _, _, total, err := blockHeader(b)
		if err != nil {
			break
		}
		starts[at] = true
		at, b = at+count*EdgeBytes, b[total:]
	}
	return starts
}
