package xstream

import (
	"fmt"

	"fastbfs/internal/errs"
	"fastbfs/internal/graph"
)

// This file holds the direction-optimizing policy machinery of the
// kernel: the direction policy type, the Beamer-style switch heuristic
// state — consulted by the streaming loop and by the indexed resident
// traversal — and the global frontier bitmap the streaming bottom-up
// iterations exchange. Those passes themselves are in bottomup.go.
//
// The out-of-core formulation (DESIGN.md §12): a top-down iteration
// scatters the frontier's out-edges into shuffled update files; a
// bottom-up iteration instead streams each partition's *in-edges* and,
// for every still-unvisited vertex, looks for a parent in the frontier
// bitmap — no update files at all. To keep results byte-identical to
// top-down, the winning parent for a vertex v must be the same one
// top-down's first-update-wins gather would pick: the first of v's
// in-edges in the update files, which the scatter appends in
// source-partition order, each partition's edges in stored order — sorted
// by source — so v's smallest-id frontier in-neighbour. The transposed
// graph lists each vertex's in-edges in source order, and every reverse
// input keeps that order, so bottom-up's first hit is that winner.

// Direction is a traversal direction policy.
type Direction string

// The three direction policies.
const (
	DirectionTopDown  Direction = "topdown"
	DirectionBottomUp Direction = "bottomup"
	DirectionAuto     Direction = "auto"
)

// The switch ratios of the hybrid heuristic, Beamer et al.'s α = 14 and
// β = 24, fixed parameters as in Buluç et al.; DirState applies them.
const (
	directionAlpha = 14
	directionBeta  = 24
)

// ParseDirection parses a direction policy. Empty means topdown (the
// default); anything else unknown is ErrBadOptions.
func ParseDirection(s string) (Direction, error) {
	switch Direction(s) {
	case "", DirectionTopDown:
		return DirectionTopDown, nil
	case DirectionBottomUp:
		return DirectionBottomUp, nil
	case DirectionAuto:
		return DirectionAuto, nil
	}
	return "", fmt.Errorf("xstream: unknown direction %q (want topdown, bottomup or auto): %w", s, errs.ErrBadOptions)
}

// ResolveDirection checks the configured policy against the stored
// dataset: auto without a reverse-edge file falls back to pure
// top-down (fellBack reports it — the serving layer keeps answering
// queries on stale graphs), while an explicit bottomup without one is
// an error.
func (rt *Runtime) ResolveDirection() (dir Direction, fellBack bool, err error) {
	dir = rt.Opts.Direction
	if dir == "" {
		dir = DirectionTopDown
	}
	if dir == DirectionTopDown || graph.HasReverse(rt.Vol, rt.Meta.Name) {
		return dir, false, nil
	}
	if dir == DirectionBottomUp {
		return "", false, fmt.Errorf("xstream: direction bottomup needs the reverse-edge file %s (re-store the graph): %w",
			graph.ReverseFileName(rt.Meta.Name), errs.ErrBadOptions)
	}
	return DirectionTopDown, true, nil
}

// Bitset is a fixed-size bitmap over the vertex space — the frontier
// representation bottom-up iterations exchange. Like OutDeg, it lives
// outside the modelled memory budget (vertices/8 bytes).
type Bitset struct{ w []uint64 }

// NewBitset returns an all-zero bitmap over n vertices.
func NewBitset(n uint64) *Bitset { return &Bitset{w: make([]uint64, (n+63)/64)} }

// Set marks vertex i.
func (b *Bitset) Set(i graph.VertexID) { b.w[i>>6] |= 1 << (uint(i) & 63) }

// Get reports whether vertex i is marked.
func (b *Bitset) Get(i graph.VertexID) bool { return b.w[i>>6]>>(uint(i)&63)&1 == 1 }

// Claim marks vertex i and reports whether this call was the one that
// marked it.
func (b *Bitset) Claim(i graph.VertexID) bool {
	w, m := &b.w[i>>6], uint64(1)<<(uint(i)&63)
	if *w&m != 0 {
		return false
	}
	*w |= m
	return true
}

// reset makes b an all-zero bitmap over n vertices, keeping its storage
// when that is large enough (the scratch-owned bitmaps of filter.go).
func (b *Bitset) reset(n uint64) *Bitset {
	chunk(&b.w, int((n+63)/64))
	b.Clear()
	return b
}

// Clear zeroes the bitmap for reuse.
func (b *Bitset) Clear() {
	for i := range b.w {
		b.w[i] = 0
	}
}

// toggle flips every bit o holds.
func (b *Bitset) toggle(o *Bitset) {
	for i, w := range o.w {
		b.w[i] ^= w
	}
}

// DirState is the per-run direction heuristic state. The engines call
// Decide at the top of every iteration and the Record methods as each
// pass completes; everything in between is plain bookkeeping, so the
// decision sequence is deterministic for a given graph and option set —
// the property the cross-engine equivalence suite rests on.
//
// The α test runs one update wave ahead of the work it avoids: a
// top-down scatter's emitted updates are exactly the candidate set for
// the next level, and summing OutDeg over their targets (RecordScatter)
// bounds that level's out-degree before its own scatter ever runs. When
// α fires, the next iteration gathers the already-written candidate
// wave (the transition pass) and then goes bottom-up — the peak wave it
// predicted is never written. Beamer's "frontier growing" guard keeps α
// from re-firing on the shrinking tail, where the unexplored estimate
// bottoms out. The β test is exact — a bottom-up pass counts its newly
// formed frontier and that frontier's out-degree sum as it runs.
type DirState struct {
	// Conf is the resolved policy.
	Conf Direction
	dirHistory

	vertices float64
	// held says Decide just held a bottom-up pass back from a stored one.
	held bool
}

// dirHistory is the part of DirState a checkpoint keeps (checkpoint.go):
// what Decide reads, and the switch accounting.
type dirHistory struct {
	// Mode is the mode Decide last chose. Switches counts mode changes;
	// BottomUpIters counts bottom-up iterations; SwitchIteration is the
	// first bottom-up iteration (-1 when the run never switched).
	Mode            Direction
	Switches        int64
	BottomUpIters   int64
	SwitchIteration int
	// Unexplored is α's estimate of the edges not yet expanded; LastCount
	// the size of the most recently formed frontier (β's input).
	// CandDeg/CandCount describe the last top-down scatter's emitted update
	// wave — the next level's candidates — and PrevCand the wave before it
	// (α's growth guard).
	Unexplored float64
	LastCount  uint64
	CandDeg    float64
	CandCount  int64
	PrevCand   int64
	// StoredPrice is, while the forward input is still the stored edge
	// file (a FastBFS run before its split, split.go), what a top-down pass
	// would read: the whole file, less what the bottom-up passes β held
	// back from it have read (RecordBottomUp) — it holds them until they
	// have read as much.
	StoredPrice float64
}

// NewDirState builds the heuristic state for a run under the resolved
// policy dir.
func NewDirState(rt *Runtime, dir Direction) *DirState {
	return &DirState{Conf: dir,
		dirHistory: dirHistory{Mode: DirectionTopDown, SwitchIteration: -1, Unexplored: float64(rt.Meta.Edges)},
		vertices:   float64(rt.Meta.Vertices)}
}

// Decide picks iteration iter's mode (true = bottom-up) from what the
// Record methods logged, updating the switch accounting.
func (ds *DirState) Decide(iter int) bool {
	// β: drop back to top-down once the frontier is small, unless that
	// pass is priced at the stored file. α: go bottom-up once the
	// candidate wave's out-edges dominate the unexplored remainder — and
	// only while the wave is still growing, so the collapsing tail stays
	// top-down.
	stay := float64(ds.LastCount) >= ds.vertices/directionBeta
	ds.held = !stay && ds.StoredPrice > 0 && ds.Mode == DirectionBottomUp
	return ds.pick(iter, stay || ds.held,
		ds.CandCount > ds.PrevCand && ds.CandDeg > ds.Unexplored/directionAlpha)
}

// DecideExact is Decide for the indexed resident traversal (engine.go),
// which needs no look-ahead and no estimate: its index gives it Beamer's
// own inputs for the very level it is about to expand — the frontier's
// size and out-degree sum, what a top-down level expands, against the
// unvisited vertices and their in-degree sum, all a bottom-up level can
// scan. α prices that scan at 1/α of the in-degree sum, for its early
// exits; it is never under one entry per unvisited vertex, which is what
// keeps a tree or a sparse graph top-down. The growth guard is Decide's.
func (ds *DirState) DecideExact(iter int, frontier, frontierOut, unvisited, unvisitedIn uint64) bool {
	growing := frontier > ds.LastCount
	ds.LastCount = frontier
	return ds.pick(iter,
		float64(frontier) >= ds.vertices/directionBeta,
		growing && float64(frontierOut) > max(float64(unvisitedIn)/directionAlpha, float64(unvisited)))
}

// pick applies the policy to the heuristic's two verdicts — stay
// bottom-up (β) and go bottom-up (α) — and keeps the switch accounting.
// Iteration 0 is always top-down: it expands the root alone (the
// streaming loop plants it during that gather-less first pass) and
// bottom-up needs an existing frontier.
func (ds *DirState) pick(iter int, stay, enter bool) bool {
	bottom := false
	switch {
	case iter == 0 || ds.Conf == DirectionTopDown:
	case ds.Conf == DirectionBottomUp:
		bottom = true
	case ds.Mode == DirectionBottomUp:
		bottom = stay
	default:
		bottom = enter
	}
	mode := DirectionTopDown
	if bottom {
		mode = DirectionBottomUp
	}
	if mode != ds.Mode {
		ds.Switches++
	}
	ds.Mode = mode
	if bottom {
		ds.BottomUpIters++
		if ds.SwitchIteration < 0 {
			ds.SwitchIteration = iter
		}
	}
	return bottom
}

// RecordFrontier logs a formed frontier: its vertex count and
// out-degree sum. formedNow must be false when the frontier was formed
// (and therefore already recorded) by an earlier iteration — the
// top-down iteration right after a bottom-up one scatters a frontier
// the bottom-up pass built, and subtracting its edges twice would drain
// the unexplored estimate early.
func (ds *DirState) RecordFrontier(count uint64, degSum float64, formedNow bool) {
	ds.LastCount = count
	if formedNow {
		ds.Unexplored -= degSum
		if ds.Unexplored < 0 {
			ds.Unexplored = 0
		}
	}
}

// RecordBottomUp logs the edges a bottom-up pass read; one β held back
// pays them toward the stored pass it stands in for.
func (ds *DirState) RecordBottomUp(edges int64) {
	if ds.held {
		ds.StoredPrice -= float64(edges)
	}
}

// RecordScatter logs a top-down scatter's emitted update wave: how many
// updates it wrote and the out-degree sum over their target vertices
// (α's look-ahead input).
func (ds *DirState) RecordScatter(emitted int64, candDeg float64) {
	ds.PrevCand = ds.CandCount
	ds.CandCount = emitted
	ds.CandDeg = candDeg
}
