package stream

import (
	"testing"

	"fastbfs/internal/graph"
)

func TestResidencyNilIsDisabled(t *testing.T) {
	var r *Residency
	if r.TryReserve(1) {
		t.Fatal("nil residency accepted a reservation")
	}
	// Every accessor and mutator must be a safe no-op.
	r.Commit(0, 0)
	r.Release(0)
	r.Shrink(0)
	r.NoteScan(10)
	r.NoteSavedWrite(10)
	if r.FairShare() != 0 || r.ResidentParts() != 0 || r.Bytes() != 0 || r.Scans() != 0 || r.SavedBytes() != 0 {
		t.Fatal("nil residency reported non-zero stats")
	}
	if NewResidency(0, 4) != nil || NewResidency(-1, 4) != nil {
		t.Fatal("non-positive budget did not disable the cache")
	}
}

func TestResidencyFairShareGatesPromotion(t *testing.T) {
	r := NewResidency(1000, 4) // fair share 250
	if r.FairShare() != 250 {
		t.Fatalf("fair share = %d", r.FairShare())
	}
	if r.TryReserve(251) {
		t.Fatal("reservation above the fair share accepted")
	}
	if !r.TryReserve(250) {
		t.Fatal("reservation at the fair share refused")
	}
	r.Commit(250, 100)
	if r.Bytes() != 100 || r.ResidentParts() != 1 {
		t.Fatalf("after commit: bytes=%d parts=%d", r.Bytes(), r.ResidentParts())
	}
}

func TestResidencyBudgetExhaustion(t *testing.T) {
	r := NewResidency(400, 2) // fair share 200
	if !r.TryReserve(200) {
		t.Fatal("first reservation refused")
	}
	r.Commit(200, 200)
	if !r.TryReserve(200) {
		t.Fatal("second reservation refused with budget left")
	}
	r.Commit(200, 200)
	if r.TryReserve(1) {
		t.Fatal("reservation accepted beyond the budget")
	}
	r.Shrink(150)
	if !r.TryReserve(150) {
		t.Fatal("freed budget not reusable")
	}
}

func TestResidencyReleaseRestoresBudget(t *testing.T) {
	r := NewResidency(100, 1)
	if !r.TryReserve(100) {
		t.Fatal("reservation refused")
	}
	r.Release(100)
	if r.Bytes() != 0 {
		t.Fatalf("bytes after release = %d", r.Bytes())
	}
	if !r.TryReserve(100) {
		t.Fatal("budget not restored by release")
	}
}

func TestResidencyUnboundedReserveDoesNotOverflow(t *testing.T) {
	const maxInt64 = int64(^uint64(0) >> 1)
	r := NewResidency(maxInt64, 1)
	if !r.TryReserve(1 << 40) {
		t.Fatal("huge reservation refused at unbounded budget")
	}
	if !r.TryReserve(1 << 40) {
		t.Fatal("second huge reservation refused (overflowed?)")
	}
}

func TestResidencySavedAccounting(t *testing.T) {
	r := NewResidency(1000, 1)
	r.NoteScan(300)
	r.NoteScan(200)
	r.NoteSavedWrite(50)
	if r.Scans() != 2 {
		t.Fatalf("scans = %d", r.Scans())
	}
	if r.SavedBytes() != 550 {
		t.Fatalf("saved = %d", r.SavedBytes())
	}
}

func TestResidentAppendAndTrim(t *testing.T) {
	res := NewResident(10)
	edges := makeEdges(10)
	for _, chunk := range [][]graph.Edge{edges[:3], nil, edges[3:]} {
		if err := res.AppendChunk(chunk); err != nil {
			t.Fatal(err)
		}
	}
	if res.Count() != 10 || res.Bytes() != 10*graph.EdgeBytes {
		t.Fatalf("count=%d bytes=%d", res.Count(), res.Bytes())
	}
	// In-place trim: keep even-source edges, compacting into the same
	// backing array as the engines do.
	live := res.Edges()
	kept := live[:0]
	for _, e := range live {
		if e.Src%2 == 0 {
			kept = append(kept, e)
		}
	}
	res.Replace(kept)
	if res.Count() != 5 {
		t.Fatalf("count after trim = %d", res.Count())
	}
	for i, e := range res.Edges() {
		if e.Src != graph.VertexID(2*i) {
			t.Fatalf("edge %d = %v after trim", i, e)
		}
	}
}

func TestResidentNegativeCapacity(t *testing.T) {
	res := NewResident(-5)
	if err := res.AppendChunk([]graph.Edge{{Src: 1, Dst: 2}}); err != nil {
		t.Fatal(err)
	}
	if res.Count() != 1 {
		t.Fatalf("count = %d", res.Count())
	}
}
