package graph

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"fastbfs/internal/errs"
)

// This file implements the block-compressed "delta" edge codec. Each
// block of at most DeltaBlockMaxEdges records is varints in the smaller
// of two layouts (pairs on a tie), and deltas reset at each block:
//
//	[uvarint bodyLen][body]
//	pairs: body = [uvarint n][n × (zigzag Δsrc, zigzag Δdst)]
//	runs:  body = [uvarint DeltaBlockMaxEdges+n][runs]
//	run = [zigzag Δsrc][uvarint len−1][uvarint dst][len−1 × uvarint Δdst]
//
// A pairs record is taken against the previous one. A run is a maximal
// stretch of records that share a source, taken against the previous
// run's, and have non-decreasing destinations: a sorted file pays for a
// source once, and on a degree-ordered one (DegreePermutation) most gaps
// take a byte. A decoder that knows only pairs rejects a runs block's
// count as corrupt. Decoding yields exactly the input records, so every
// invariant that depends on edge order holds across codecs. Blocks travel
// whole in FBD1 frames, whose CRC is the integrity check; the caps below
// keep a corrupted length from driving a giant allocation before it.

// Codec names an on-disk edge encoding.
type Codec string

const (
	// CodecFixed is the raw fixed-width record format ("" reads as
	// fixed everywhere for backward compatibility).
	CodecFixed Codec = "fixed"
	// CodecDelta is the block-compressed varint delta format.
	CodecDelta Codec = "delta"
)

// ParseCodec normalizes a codec name. The empty string is CodecFixed.
func ParseCodec(s string) (Codec, error) {
	switch Codec(s) {
	case "", CodecFixed:
		return CodecFixed, nil
	case CodecDelta:
		return CodecDelta, nil
	}
	return "", fmt.Errorf("graph: %w: unknown codec %q (fixed or delta)", errs.ErrBadOptions, s)
}

// String returns the canonical codec name ("" prints as fixed).
func (c Codec) String() string {
	if c == "" {
		return string(CodecFixed)
	}
	return string(c)
}

// FrameMagicDelta is the little-endian uint32 spelling "FBD1" that
// opens framed files whose payload is delta blocks rather than raw
// fixed-width records.
const FrameMagicDelta = uint32(0x31444246)

// DeltaBlockMaxEdges caps the edge count per delta block, bounding the
// decoder's per-block output to DeltaBlockMaxEdges*EdgeBytes bytes.
const DeltaBlockMaxEdges = 4096

// MaxDeltaBlockBody caps a block's encoded body: a full block is at most
// ~10 bytes per edge (pairs of 5-byte varints), under the cap.
const MaxDeltaBlockBody = 64 << 10

// zigzag maps a signed delta to an unsigned varint-friendly value.
func zigzag(d int64) uint64 { return uint64((d << 1) ^ (d >> 63)) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// UvarintLen is the number of bytes binary.PutUvarint writes for x.
func UvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// record returns the endpoints of the fixed-width record at raw[off:].
func record(raw []byte, off int) (src, dst int64) {
	v := binary.LittleEndian.Uint64(raw[off:])
	return int64(uint32(v)), int64(v >> 32)
}

// AppendDeltaBlocks encodes raw fixed-width edge records (len must be a
// multiple of EdgeBytes) into self-delimiting delta blocks appended to
// dst, each in the smaller of its two layouts (pairs on a tie). It is the
// single encoder used by StoreGraph, the stay-file writers and the
// reverse-file builder.
func AppendDeltaBlocks(dst, raw []byte) ([]byte, error) {
	if len(raw)%EdgeBytes != 0 {
		return dst, fmt.Errorf("graph: delta encode: %d bytes is not a whole number of edges", len(raw))
	}
	for off := 0; off < len(raw); off += DeltaBlockMaxEdges * EdgeBytes {
		blk := raw[off:min(off+DeltaBlockMaxEdges*EdgeBytes, len(raw))]
		n := uint64(len(blk) / EdgeBytes)
		// Runs go in after room for the longest length, then move down to
		// it, unless pairs is no longer and replaces them.
		h := len(dst)
		var pairs int
		dst, pairs = appendRuns(binary.AppendUvarint(append(dst, 0, 0, 0), DeltaBlockMaxEdges+n), blk)
		runs := len(dst) - h - 3
		if pairs += UvarintLen(n); pairs <= runs {
			dst = appendPairs(binary.AppendUvarint(binary.AppendUvarint(dst[:h], uint64(pairs)), n), blk)
		} else {
			hn := len(binary.AppendUvarint(dst[:h], uint64(runs))) - h
			dst = dst[:h+hn+copy(dst[h+hn:], dst[h+3:])]
		}
	}
	return dst, nil
}

// appendPairs appends blk's records in the pairs layout.
func appendPairs(dst, blk []byte) []byte {
	var prevSrc, prevDst int64
	for off := 0; off < len(blk); off += EdgeBytes {
		src, d := record(blk, off)
		dst = binary.AppendUvarint(binary.AppendUvarint(dst, zigzag(src-prevSrc)), zigzag(d-prevDst))
		prevSrc, prevDst = src, d
	}
	return dst
}

// appendRuns appends blk's records in the runs layout and returns the
// length of the pairs layout's records too.
func appendRuns(dst, blk []byte) ([]byte, int) {
	var runSrc, prevDst int64
	pairs := 0
	for off := 0; off < len(blk); {
		src, first := record(blk, off)
		end, prev := off+EdgeBytes, first
		for ; end < len(blk); end += EdgeBytes {
			s, d := record(blk, end)
			if s != src || d < prev {
				break
			}
			prev = d
		}
		pairs += UvarintLen(zigzag(src-runSrc)) + UvarintLen(zigzag(first-prevDst))
		dst = binary.AppendUvarint(dst, zigzag(src-runSrc))
		dst = binary.AppendUvarint(dst, uint64((end-off)/EdgeBytes-1))
		dst = binary.AppendUvarint(dst, uint64(first))
		for prev, off = first, off+EdgeBytes; off < end; off += EdgeBytes {
			_, d := record(blk, off)
			pairs += 1 + UvarintLen(zigzag(d-prev))
			dst = binary.AppendUvarint(dst, uint64(d-prev))
			prev = d
		}
		runSrc, prevDst = src, prev
	}
	return dst, pairs
}

// EncodeDeltaBlocks encodes fixed-width edge records into a fresh
// delta-block byte slice.
func EncodeDeltaBlocks(raw []byte) ([]byte, error) { return AppendDeltaBlocks(nil, raw) }

// RunHint steers a delta block decode one run at a time: a stretch of
// records that share a source, or one record of a pairs block. Keep is
// asked before the run's n records are decoded, and says whether to write
// them; Last is told the run's last destination once it is decoded, which,
// as a run's destinations rise, bounds them all. Either stops the decode
// with its error. A run the hint drops is decoded and checked like any
// other but not written. A skip mark stands in the first slot of each
// stretch of dropped runs, and the rest of the stretch is left as it was:
// a record of source NoVertex, which no vertex has (a hinted decode writes
// no run of it), whose destination is the stretch's length in records.
type RunHint interface {
	Keep(src VertexID, n int) (bool, error)
	Last(dst VertexID) error
}

// DecodeDeltaBlock decodes the first complete block in b, appending the
// decoded fixed-width edge records to out. It returns the grown slice and
// the number of encoded bytes consumed. Every malformed block — see
// blockHeader and decodeBody — is an error wrapping errs.ErrCorrupted; an
// error of hint's (nil: every run is written) is returned as it is.
func DecodeDeltaBlock(out, b []byte, hint RunHint) ([]byte, int, error) {
	count, runs, body, total, err := blockHeader(b)
	if err != nil {
		return out, 0, err
	}
	base := len(out)
	out = slices.Grow(out, count*EdgeBytes)[:base+count*EdgeBytes]
	if err := decodeBody(out[base:], b[body:total], runs, hint); err != nil {
		return out[:base], 0, err
	}
	return out, total, nil
}

// blockHeader reads the header of the block at the start of b: its edge
// count and layout, and the offsets of its records and of its end.
func blockHeader(b []byte) (count int, runs bool, body, total int, err error) {
	bodyLen, n := binary.Uvarint(b)
	if n <= 0 || bodyLen > MaxDeltaBlockBody || bodyLen > uint64(len(b)-n) {
		return 0, false, 0, 0, fmt.Errorf("graph: %w: delta block of body length %d (cap %d) in %d bytes", errs.ErrCorrupted, bodyLen, MaxDeltaBlockBody, len(b))
	}
	total = n + int(bodyLen)
	c, cn := binary.Uvarint(b[n:total])
	if runs = c > DeltaBlockMaxEdges; runs {
		c -= DeltaBlockMaxEdges
	}
	if cn <= 0 || c == 0 || c > DeltaBlockMaxEdges || c > bodyLen {
		return 0, false, 0, 0, fmt.Errorf("graph: %w: delta block edge count %d outside (0, %d] in either layout", errs.ErrCorrupted, c, DeltaBlockMaxEdges)
	}
	return int(c), runs, n + cn, total, nil
}

// uvarint reads the varint at body[p:], one or two bytes without a
// call. A truncated or overlong varint, or p < 0, yields p = -1.
func uvarint(body []byte, p int) (uint64, int) {
	if p < 0 {
		return 0, -1
	} else if p+1 < len(body) {
		if c := body[p]; c < 0x80 {
			return uint64(c), p + 1
		} else if d := body[p+1]; d < 0x80 {
			return uint64(c&0x7f) | uint64(d)<<7, p + 2
		}
	}
	if v, n := binary.Uvarint(body[p:]); n > 0 { // p <= len(body): p passes whole varints
		return v, p + n
	}
	return 0, -1
}

// decodeBody decodes a block body in its layout into rec, whose length is
// the count, and returns what is wrong with the body, if anything. With a
// hint it writes only the runs the hint keeps, and a skip mark in the
// first slot of each stretch of runs it drops.
func decodeBody(rec, body []byte, runs bool, hint RunHint) error {
	var src, dst uint64
	p, mark, skipped := 0, 0, 0 // skipped: the records of the stretch marked at mark
	for j := 0; j < len(rec); j += EdgeBytes {
		zs, q := uvarint(body, p)
		v, q := uvarint(body, q)
		more := uint64(0) // a pairs record is a run of one
		if runs {
			more = v
			dst, q = uvarint(body, q)
		} else {
			dst += uint64(unzigzag(v))
		}
		src, p = src+uint64(unzigzag(zs)), q
		if p < 0 || src > math.MaxUint32 || dst > math.MaxUint32 || more >= uint64((len(rec)-j)/EdgeBytes) {
			return corruptBlock("truncated, or an endpoint outside the uint32 range, or a run past the edge count")
		}
		keep := true
		if hint != nil {
			k, err := hint.Keep(VertexID(src), int(more)+1)
			if err != nil {
				return err
			}
			if keep = k && src != uint64(NoVertex); !keep {
				if skipped == 0 || mark+skipped*EdgeBytes != j {
					mark, skipped = j, 0
				}
				skipped += int(more) + 1
				binary.LittleEndian.PutUint64(rec[mark:], uint64(skipped)<<32|uint64(NoVertex))
			}
		}
		if keep {
			binary.LittleEndian.PutUint64(rec[j:], dst<<32|src)
		}
		for end := j + int(more)*EdgeBytes; j < end; {
			gap := uint64(0)
			if uint(p) < uint(len(body)) && body[p] < 0x80 {
				gap, p = uint64(body[p]), p+1
			} else {
				gap, p = uvarint(body, p)
			}
			if dst += gap; p < 0 || gap > math.MaxUint32 || dst > math.MaxUint32 {
				return corruptBlock("truncated, or a gap past the uint32 range")
			}
			if j += EdgeBytes; keep {
				binary.LittleEndian.PutUint64(rec[j:], dst<<32|src)
			}
		}
		if hint != nil {
			if err := hint.Last(VertexID(dst)); err != nil {
				return err
			}
		}
	}
	if p != len(body) {
		return corruptBlock("carries trailing bytes")
	}
	return nil
}

func corruptBlock(bad string) error {
	return fmt.Errorf("graph: %w: delta block %s", errs.ErrCorrupted, bad)
}

// DecodeDeltaStream decodes a complete concatenation of delta blocks
// (e.g. a deframed .edges file) back into fixed-width edge records, sized
// once from the block headers.
func DecodeDeltaStream(blocks []byte) ([]byte, error) {
	records := 0
	for b := blocks; len(b) > 0; {
		count, _, _, total, err := blockHeader(b)
		if err != nil {
			break // the decode below reports it
		}
		records, b = records+count, b[total:]
	}
	out := make([]byte, 0, records*EdgeBytes)
	for len(blocks) > 0 {
		var n int
		var err error
		if out, n, err = DecodeDeltaBlock(out, blocks, nil); err != nil {
			return nil, err
		}
		blocks = blocks[n:]
	}
	return out, nil
}
