package graph

import (
	"fmt"
	"slices"
	"sort"

	"fastbfs/internal/errs"
	"fastbfs/internal/storage"
)

// Degree-aware vertex reordering: StoreGraph can relabel vertices by
// descending total degree before writing the dataset, which clusters
// hub edges so the delta codec's varints collapse (the power-law
// graph-transformation observation). The old↔new mapping is persisted
// in a .perm sidecar; engines run entirely in the stored (new) label
// space and translate roots in and levels/parents out at the API
// boundary, so callers never see relabeled ids.

// PermFileName returns the degree-permutation sidecar name for a
// dataset.
func PermFileName(name string) string { return name + ".perm" }

// HasPerm reports whether a stored dataset carries a permutation
// sidecar.
func HasPerm(vol storage.Volume, name string) bool {
	sz, err := vol.Size(PermFileName(name))
	return err == nil && sz > 0
}

// Permutation is a bijection between original vertex labels and the
// stored ids of a reordered dataset.
type Permutation struct {
	origOf []VertexID // origOf[stored] = original
	newOf  []VertexID // newOf[original] = stored
}

// NewPermutation builds a Permutation from the stored→original array,
// validating that it is a bijection on [0, len).
func NewPermutation(origOf []VertexID) (*Permutation, error) {
	p := &Permutation{origOf: origOf}
	if err := p.invert(); err != nil {
		return nil, err
	}
	return p, nil
}

// invert builds newOf from origOf, reusing newOf's memory, and validates
// that origOf is a bijection on [0, len).
func (p *Permutation) invert() error {
	n := len(p.origOf)
	p.newOf = slices.Grow(p.newOf[:0], n)[:n]
	for i := range p.newOf {
		p.newOf[i] = NoVertex
	}
	for stored, orig := range p.origOf {
		if int(orig) >= n {
			return fmt.Errorf("graph: %w: permutation maps stored id %d to out-of-range vertex %d", errs.ErrCorrupted, stored, orig)
		}
		if p.newOf[orig] != NoVertex {
			return fmt.Errorf("graph: %w: permutation maps vertex %d twice", errs.ErrCorrupted, orig)
		}
		p.newOf[orig] = VertexID(stored)
	}
	return nil
}

// Len returns the number of vertices the permutation covers.
func (p *Permutation) Len() int { return len(p.origOf) }

// ToStored maps an original vertex label to its stored id.
func (p *Permutation) ToStored(orig VertexID) VertexID { return p.newOf[orig] }

// ToOrig maps a stored id back to the original vertex label.
func (p *Permutation) ToOrig(stored VertexID) VertexID { return p.origOf[stored] }

// Apply relabels edges in place into the stored id space.
func (p *Permutation) Apply(edges []Edge) {
	for i, e := range edges {
		edges[i] = Edge{Src: p.newOf[e.Src], Dst: p.newOf[e.Dst]}
	}
}

// ReindexByPerm re-bases a per-vertex array from stored-id indexing to
// original-label indexing: out[orig] = vals[stored].
func ReindexByPerm[T any](p *Permutation, vals []T) []T {
	out := make([]T, len(vals))
	for stored, v := range vals {
		out[p.origOf[stored]] = v
	}
	return out
}

// DegreePermutation builds the descending-total-degree relabeling:
// stored id 0 is the highest-degree vertex. Ties break on ascending
// original label, so the permutation is deterministic for a given edge
// list.
func DegreePermutation(vertices uint64, edges []Edge) *Permutation {
	deg := make([]uint32, vertices)
	for _, e := range edges {
		deg[e.Src]++
		deg[e.Dst]++
	}
	origOf := make([]VertexID, vertices)
	for i := range origOf {
		origOf[i] = VertexID(i)
	}
	sort.Slice(origOf, func(i, j int) bool {
		if deg[origOf[i]] != deg[origOf[j]] {
			return deg[origOf[i]] > deg[origOf[j]]
		}
		return origOf[i] < origOf[j]
	})
	p, err := NewPermutation(origOf)
	if err != nil {
		panic(err) // origOf is a permutation by construction
	}
	return p
}

// StorePerm writes the permutation sidecar: the stored→original ids, two to
// an FBD1 record (DESIGN.md §14).
func StorePerm(vol storage.Volume, name string, p *Permutation) error {
	return storage.WriteAll(vol, PermFileName(name), words32(p.origOf))
}

// LoadPerm reads and validates the FBD1 permutation sidecar of a reordered
// dataset into a new Permutation (see Load).
func LoadPerm(vol storage.Volume, name string, vertices uint64) (*Permutation, error) {
	p := &Permutation{}
	if err := p.Load(vol, name, vertices, nil); err != nil {
		return nil, err
	}
	return p, nil
}

// Load reads and validates the FBD1 permutation sidecar of a reordered
// dataset, decoding the ids straight into p's arrays, which it reuses where
// they are large enough, through a frame buffer from bufs (nil: its own).
// Integrity violations — framing damage, a length
// that does not match the vertex count, a non-bijective mapping — wrap
// errs.ErrCorrupted; p is then unusable until the next Load.
func (p *Permutation) Load(vol storage.Volume, name string, vertices uint64, bufs Buffers) error {
	fail := func(err error) error {
		return fmt.Errorf("graph: permutation for %s: %w", name, err)
	}
	r, err := vol.Open(PermFileName(name))
	if err != nil {
		return fail(err)
	}
	defer r.Close()
	if uint64(r.Size()) < vertices { // an id takes a byte at least
		return fail(fmt.Errorf("%w: %d bytes for %d vertices", errs.ErrCorrupted, r.Size(), vertices))
	}
	p.origOf = slices.Grow(p.origOf[:0], int(vertices))[:vertices]
	// No frame outgrows its file.
	if err := readWords(r, bufs, int(min(r.Size(), MaxFramePayload)), vertices, func(i uint64, w uint32) { p.origOf[i] = VertexID(w) }); err != nil {
		return fail(err)
	}
	if err := p.invert(); err != nil {
		return fail(err)
	}
	return nil
}
