package stream

import (
	"fastbfs/internal/graph"
)

// This file implements the resident-partition cache: once trimming has
// shrunk a partition's live edge set below its fair share of a per-run
// memory budget, the engine promotes it — the surviving edges move into
// an in-memory Resident slice and every later scatter reads them from
// RAM instead of the device. Promotion is monotone: trimming only ever
// shrinks a partition's input (stay ⊆ previous input, §II-A), so a
// promoted partition never grows back and no eviction (LRU or
// otherwise) is needed. The Residency tracker does the budget
// accounting; the engine owns the cost model (a RAM scan charges
// memory-bandwidth compute time on the virtual clock, not device time).

// Residency tracks the memory budget of the resident-partition cache
// for one engine run. A nil *Residency is the disabled cache: every
// method is a no-op and TryReserve always refuses, so engines carry a
// single pointer and branch nowhere else. Engine-thread only.
type Residency struct {
	budget int64
	parts  int

	bytes    int64
	resident int64

	scans      int64
	savedRead  int64
	savedWrite int64
}

// NewResidency returns a tracker for a run over `parts` partitions with
// the given byte budget, or nil (the disabled cache) when budget <= 0.
func NewResidency(budget int64, parts int) *Residency {
	if budget <= 0 {
		return nil
	}
	if parts < 1 {
		parts = 1
	}
	return &Residency{budget: budget, parts: parts}
}

// FairShare is one partition's slice of the budget. A partition is only
// promoted when its whole live input fits its fair share, so a skewed
// partition can never squat on the entire budget while the rest keep
// paying the device.
func (r *Residency) FairShare() int64 {
	if r == nil {
		return 0
	}
	return r.budget / int64(r.parts)
}

// TryReserve asks to promote a partition whose on-device input is n
// bytes: it succeeds when n fits both the fair share and the remaining
// budget, and reserves n until Commit or Release. The reservation is an
// upper bound — the resident set is the stay subset of the scanned
// input, so Commit always returns some of it.
func (r *Residency) TryReserve(n int64) bool {
	if r == nil || n < 0 || n > r.FairShare() || r.bytes > r.budget-n {
		return false
	}
	r.bytes += n
	return true
}

// Commit finalizes a successful promotion: the reservation shrinks to
// the bytes actually held resident and the partition count bumps.
func (r *Residency) Commit(reserved, actual int64) {
	if r == nil {
		return
	}
	r.bytes += actual - reserved
	r.resident++
}

// Release aborts a reservation (the promoting scatter failed).
func (r *Residency) Release(reserved int64) {
	if r == nil {
		return
	}
	r.bytes -= reserved
}

// Shrink returns freed bytes to the budget after an in-place trim of a
// resident partition.
func (r *Residency) Shrink(freed int64) {
	if r == nil {
		return
	}
	r.bytes -= freed
}

// NoteScan records one RAM scan of n resident bytes — a device read of
// the same size that never happened.
func (r *Residency) NoteScan(n int64) {
	if r == nil {
		return
	}
	r.scans++
	r.savedRead += n
}

// NoteSavedWrite records n bytes of stay-file writing the promotion (or
// a later in-place trim) made unnecessary.
func (r *Residency) NoteSavedWrite(n int64) {
	if r == nil {
		return
	}
	r.savedWrite += n
}

// ResidentParts returns how many partitions are resident. Promotion is
// monotone, so this is also the promotion count.
func (r *Residency) ResidentParts() int64 {
	if r == nil {
		return 0
	}
	return r.resident
}

// Bytes returns the bytes currently held resident (plus any open
// reservations).
func (r *Residency) Bytes() int64 {
	if r == nil {
		return 0
	}
	return r.bytes
}

// Scans returns how many partition scatters read from RAM.
func (r *Residency) Scans() int64 {
	if r == nil {
		return 0
	}
	return r.scans
}

// SavedBytes returns total device traffic avoided: reads served from
// RAM plus stay writes never issued.
func (r *Residency) SavedBytes() int64 {
	if r == nil {
		return 0
	}
	return r.savedRead + r.savedWrite
}

// Resident is one promoted partition's live edge set held in memory. It
// doubles as the trim-surviving-edge sink during the promoting scatter
// (the same role a StayFile plays on the device path) and as the scan
// source afterwards. Engine-thread only, like the streams it replaces.
type Resident struct {
	edges []graph.Edge
}

// NewResident returns an empty resident set with capacity for capEdges
// edges (the promoting scatter's input size — an upper bound on its
// stays).
func NewResident(capEdges int64) *Resident {
	if capEdges < 0 {
		capEdges = 0
	}
	return &Resident{edges: make([]graph.Edge, 0, capEdges)}
}

// AppendChunk adds a chunk's surviving edges during the promoting
// scatter. The error return matches StayFile.AppendChunk so both satisfy
// the engine's edge-sink interface; appends to a Resident cannot fail.
func (r *Resident) AppendChunk(es []graph.Edge) error {
	r.edges = append(r.edges, es...)
	return nil
}

// Edges returns the live edge slice. Callers must not retain it across
// a Replace.
func (r *Resident) Edges() []graph.Edge { return r.edges }

// Count returns the number of resident edges.
func (r *Resident) Count() int64 { return int64(len(r.edges)) }

// Bytes returns the resident set's size in edge-record bytes.
func (r *Resident) Bytes() int64 { return int64(len(r.edges)) * graph.EdgeBytes }

// Replace installs the surviving edges after an in-place trim. The new
// slice aliases the old one's storage (trim compacts in place), which is
// safe because only the engine thread touches a Resident.
func (r *Resident) Replace(edges []graph.Edge) { r.edges = edges }
