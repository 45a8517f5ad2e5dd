package graph

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"fastbfs/internal/errs"
)

func frameBytes(t *testing.T, chunks ...[]byte) []byte {
	t.Helper()
	return FrameAll(chunks...)
}

func TestFrameRoundTrip(t *testing.T) {
	chunks := [][]byte{
		[]byte("hello"),
		bytes.Repeat([]byte{0xAB}, 1<<16),
		[]byte{0},
	}
	enc := frameBytes(t, chunks...)
	got, err := DeframeAll(enc)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Join(chunks, nil)
	if !bytes.Equal(got, want) {
		t.Fatalf("round trip: got %d bytes, want %d", len(got), len(want))
	}
}

func TestFrameEmptyFile(t *testing.T) {
	enc := frameBytes(t) // magic + terminator only
	if len(enc) != 4+frameHeaderBytes {
		t.Fatalf("empty framed file is %d bytes, want %d", len(enc), 4+frameHeaderBytes)
	}
	got, err := DeframeAll(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty framed file decoded to %d bytes", len(got))
	}
}

func TestFrameDetectsBitFlip(t *testing.T) {
	enc := frameBytes(t, bytes.Repeat([]byte{7}, 4096))
	// Flip one bit in every byte position in turn; every corruption of
	// magic, header or payload must be detected (never a silent pass,
	// never a panic). The terminator's trailing-read check catches tail
	// flips.
	for i := range enc {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x10
		if _, err := DeframeAll(bad); err == nil {
			t.Fatalf("bit flip at byte %d went undetected", i)
		} else if !errors.Is(err, errs.ErrCorrupted) {
			t.Fatalf("bit flip at byte %d: error %v does not wrap ErrCorrupted", i, err)
		}
	}
}

func TestFrameDetectsTruncation(t *testing.T) {
	enc := frameBytes(t, []byte("abcdefgh"), bytes.Repeat([]byte{3}, 300))
	for cut := 0; cut < len(enc); cut++ {
		_, err := DeframeAll(enc[:cut])
		if err == nil {
			t.Fatalf("truncation to %d of %d bytes went undetected", cut, len(enc))
		}
		if !errors.Is(err, errs.ErrCorrupted) {
			t.Fatalf("truncation to %d bytes: error %v does not wrap ErrCorrupted", cut, err)
		}
	}
}

func TestFrameTrailingGarbageDetected(t *testing.T) {
	enc := append(frameBytes(t, []byte("x")), 0xFF)
	if _, err := DeframeAll(enc); !errors.Is(err, errs.ErrCorrupted) {
		t.Fatalf("trailing byte after terminator: err = %v, want ErrCorrupted", err)
	}
}

func TestSniffMagic(t *testing.T) {
	framed := frameBytes(t, []byte("payload"))
	magic, prefix, err := SniffContainer(bytes.NewReader(framed))
	if err != nil || magic != FrameMagic || len(prefix) != 0 {
		t.Fatalf("framed sniff: magic=%#x prefix=%v err=%v", magic, prefix, err)
	}

	raw := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	magic, prefix, err = SniffContainer(bytes.NewReader(raw))
	if err != nil || magic != 0 {
		t.Fatalf("raw sniff: magic=%#x err=%v", magic, err)
	}
	if !bytes.Equal(prefix, raw[:4]) {
		t.Fatalf("raw sniff consumed %v, want first 4 bytes", prefix)
	}

	// Short files (under 4 bytes) are raw with a short prefix.
	magic, prefix, err = SniffContainer(bytes.NewReader([]byte{9, 9}))
	if err != nil || magic != 0 || !bytes.Equal(prefix, []byte{9, 9}) {
		t.Fatalf("short sniff: magic=%#x prefix=%v err=%v", magic, prefix, err)
	}
}

func TestFrameReaderSmallReads(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789"), 100)
	enc := frameBytes(t, payload[:333], payload[333:])
	fr := NewFrameReader(bytes.NewReader(enc[4:]))
	var got []byte
	buf := make([]byte, 7) // awkward size: crosses frame boundaries
	for {
		n, err := fr.Read(buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("small reads reassembled %d bytes, want %d", len(got), len(payload))
	}
}

func TestFrameLengthCapEnforced(t *testing.T) {
	// A corrupted length field far beyond the cap must fail cleanly, not
	// attempt the allocation.
	enc := frameBytes(t, []byte("abc"))
	// Overwrite the first frame's length with a huge value.
	enc[4] = 0xFF
	enc[5] = 0xFF
	enc[6] = 0xFF
	enc[7] = 0x7F
	if _, err := DeframeAll(enc); !errors.Is(err, errs.ErrCorrupted) {
		t.Fatalf("oversized frame length: err = %v, want ErrCorrupted", err)
	}
}
