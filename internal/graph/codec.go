package graph

import (
	"encoding/binary"
	"fmt"
	"math"

	"fastbfs/internal/errs"
)

// This file implements the block-compressed "delta" edge codec: an
// alternative on-disk encoding for edge streams in which each edge is
// stored as the zig-zag varint delta of its endpoints against the
// previous edge in the block. Degree-ordered datasets (see
// DegreePermutation) cluster hub edges so consecutive edges share high
// bits and the deltas collapse to one or two bytes.
//
// The encoding is order-preserving: decoding yields exactly the input
// record sequence, so every downstream invariant that depends on edge
// order — first-update-wins parent selection, deterministic chunk
// merges, byte-identical update files — holds across codecs.
//
// A block is self-delimiting:
//
//	[uvarint bodyLen][body]
//	body = [uvarint edgeCount][edgeCount × (zigzag Δsrc, zigzag Δdst)]
//
// Deltas reset at each block boundary (the first edge is encoded
// against the implicit previous edge (0,0)), so any block decodes
// independently of its neighbours. Blocks are carried inside the
// CRC32-C framed container under the FBD1 magic, whole blocks to a frame
// (a block that runs past its frame's end is corrupt); the frame CRC is the
// integrity check, the caps below are what keep a corrupted length
// field from driving a giant allocation before the CRC is even
// consulted.

// Codec names an on-disk edge encoding.
type Codec string

const (
	// CodecFixed is the raw fixed-width record format ("" reads as
	// fixed everywhere for backward compatibility).
	CodecFixed Codec = "fixed"
	// CodecDelta is the block-compressed zig-zag varint delta format.
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

// MaxDeltaBlockBody caps a block's encoded body. A full block is at
// most ~10 bytes per edge (two 5-byte varints), so the cap leaves
// headroom while keeping a corrupted length harmless.
const MaxDeltaBlockBody = 64 << 10

// zigzag maps a signed delta to an unsigned varint-friendly value.
func zigzag(d int64) uint64 { return uint64((d << 1) ^ (d >> 63)) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// AppendDeltaBlocks encodes raw fixed-width edge records (len must be a
// multiple of EdgeBytes) into self-delimiting delta blocks appended to
// dst. It is the single encoder used by StoreGraph, the stay-file
// writers and the reverse-file builder.
func AppendDeltaBlocks(dst, raw []byte) ([]byte, error) {
	if len(raw)%EdgeBytes != 0 {
		return dst, fmt.Errorf("graph: delta encode: %d bytes is not a whole number of edges", len(raw))
	}
	var body [MaxDeltaBlockBody]byte
	var hdr [binary.MaxVarintLen64]byte
	for off := 0; off < len(raw); {
		end := off + DeltaBlockMaxEdges*EdgeBytes
		if end > len(raw) {
			end = len(raw)
		}
		n := (end - off) / EdgeBytes
		bn := binary.PutUvarint(body[:], uint64(n))
		var prevSrc, prevDst int64
		for ; off < end; off += EdgeBytes {
			src := int64(binary.LittleEndian.Uint32(raw[off : off+4]))
			dst32 := int64(binary.LittleEndian.Uint32(raw[off+4 : off+8]))
			bn += binary.PutUvarint(body[bn:], zigzag(src-prevSrc))
			bn += binary.PutUvarint(body[bn:], zigzag(dst32-prevDst))
			prevSrc, prevDst = src, dst32
		}
		hn := binary.PutUvarint(hdr[:], uint64(bn))
		dst = append(dst, hdr[:hn]...)
		dst = append(dst, body[:bn]...)
	}
	return dst, nil
}

// EncodeDeltaBlocks encodes fixed-width edge records into a fresh
// delta-block byte slice.
func EncodeDeltaBlocks(raw []byte) ([]byte, error) { return AppendDeltaBlocks(nil, raw) }

// DecodeDeltaBlock decodes the first complete block in b, appending the
// decoded fixed-width edge records to out. It returns the grown slice
// and the number of encoded bytes consumed. Every malformed input —
// truncated header or body, edge count outside (0, DeltaBlockMaxEdges],
// varint overflow, endpoint outside the uint32 range, body bytes left
// over after the last edge — surfaces as an error wrapping
// errs.ErrCorrupted.
func DecodeDeltaBlock(out, b []byte) ([]byte, int, error) {
	bodyLen, n := binary.Uvarint(b)
	if n <= 0 || bodyLen > MaxDeltaBlockBody || bodyLen > uint64(len(b)-n) {
		return out, 0, fmt.Errorf("graph: %w: delta block of body length %d (cap %d) in %d bytes", errs.ErrCorrupted, bodyLen, MaxDeltaBlockBody, len(b))
	}
	total := n + int(bodyLen)
	body := b[n:total]
	count, cn := binary.Uvarint(body)
	if cn <= 0 || count == 0 || count > DeltaBlockMaxEdges {
		return out, 0, fmt.Errorf("graph: %w: delta block edge count %d outside (0, %d]", errs.ErrCorrupted, count, DeltaBlockMaxEdges)
	}
	body = body[cn:]
	var prevSrc, prevDst int64
	var rec [EdgeBytes]byte
	for i := uint64(0); i < count; i++ {
		zs, sn := binary.Uvarint(body)
		if sn <= 0 {
			return out, 0, fmt.Errorf("graph: %w: delta block truncated inside edge %d", errs.ErrCorrupted, i)
		}
		body = body[sn:]
		zd, dn := binary.Uvarint(body)
		if dn <= 0 {
			return out, 0, fmt.Errorf("graph: %w: delta block truncated inside edge %d", errs.ErrCorrupted, i)
		}
		body = body[dn:]
		src := prevSrc + unzigzag(zs)
		dst := prevDst + unzigzag(zd)
		if src < 0 || src > math.MaxUint32 || dst < 0 || dst > math.MaxUint32 {
			return out, 0, fmt.Errorf("graph: %w: delta block edge %d endpoint outside the uint32 range", errs.ErrCorrupted, i)
		}
		binary.LittleEndian.PutUint32(rec[0:4], uint32(src))
		binary.LittleEndian.PutUint32(rec[4:8], uint32(dst))
		out = append(out, rec[:]...)
		prevSrc, prevDst = src, dst
	}
	if len(body) != 0 {
		return out, 0, fmt.Errorf("graph: %w: delta block carries %d trailing bytes", errs.ErrCorrupted, len(body))
	}
	return out, total, nil
}

// DecodeDeltaStream decodes a complete concatenation of delta blocks
// (e.g. a deframed .edges file) back into fixed-width edge records.
func DecodeDeltaStream(blocks []byte) ([]byte, error) {
	var out []byte
	for len(blocks) > 0 {
		var n int
		var err error
		out, n, err = DecodeDeltaBlock(out, blocks)
		if err != nil {
			return nil, err
		}
		blocks = blocks[n:]
	}
	return out, nil
}
