package graph

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestEdgeRoundTrip(t *testing.T) {
	cases := []Edge{
		{0, 0},
		{1, 2},
		{math.MaxUint32, 0},
		{0, math.MaxUint32},
		{12345678, 87654321},
	}
	for _, e := range cases {
		var b [EdgeBytes]byte
		PutEdge(b[:], e)
		if got := GetEdge(b[:]); got != e {
			t.Errorf("round trip %v: got %v", e, got)
		}
	}
}

func TestEdgeRoundTripProperty(t *testing.T) {
	f := func(src, dst uint32) bool {
		e := Edge{VertexID(src), VertexID(dst)}
		var b [EdgeBytes]byte
		PutEdge(b[:], e)
		return GetEdge(b[:]) == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeEncodingIsLittleEndian(t *testing.T) {
	var b [EdgeBytes]byte
	PutEdge(b[:], Edge{Src: 0x01020304, Dst: 0x0A0B0C0D})
	want := []byte{0x04, 0x03, 0x02, 0x01, 0x0D, 0x0C, 0x0B, 0x0A}
	if !bytes.Equal(b[:], want) {
		t.Fatalf("encoding = % x, want % x", b, want)
	}
}

func TestWEdgeRoundTripProperty(t *testing.T) {
	f := func(src, dst uint32, w float32) bool {
		e := WEdge{VertexID(src), VertexID(dst), w}
		var b [WEdgeBytes]byte
		PutWEdge(b[:], e)
		got := GetWEdge(b[:])
		// NaN != NaN, so compare bit patterns.
		return got.Src == e.Src && got.Dst == e.Dst &&
			math.Float32bits(got.Weight) == math.Float32bits(e.Weight)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateRoundTripProperty(t *testing.T) {
	f := func(dst, parent uint32) bool {
		u := Update{VertexID(dst), VertexID(parent)}
		var b [UpdateBytes]byte
		PutUpdate(b[:], u)
		return GetUpdate(b[:]) == u
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWriteReadEdges(t *testing.T) {
	edges := []Edge{{1, 2}, {3, 4}, {5, 6}, {0, math.MaxUint32}}
	var buf bytes.Buffer
	if err := WriteEdges(&buf, edges); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != len(edges)*EdgeBytes {
		t.Fatalf("wrote %d bytes, want %d", buf.Len(), len(edges)*EdgeBytes)
	}
	got, err := ReadEdges(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(edges) {
		t.Fatalf("read %d edges, want %d", len(got), len(edges))
	}
	for i := range edges {
		if got[i] != edges[i] {
			t.Errorf("edge %d = %v, want %v", i, got[i], edges[i])
		}
	}
}

func TestReadEdgesEmpty(t *testing.T) {
	got, err := ReadEdges(bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d edges from empty stream", len(got))
	}
}

func TestReadEdgesTruncated(t *testing.T) {
	b := EdgesToBytes([]Edge{{1, 2}, {3, 4}})
	if _, err := ReadEdges(bytes.NewReader(b[:len(b)-3])); err == nil {
		t.Fatal("expected error for truncated edge stream")
	}
}

// onebyte yields one byte per Read to exercise the refill loop.
type onebyte struct{ b []byte }

func (r *onebyte) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	p[0] = r.b[0]
	r.b = r.b[1:]
	return 1, nil
}

func TestReadEdgesByteAtATime(t *testing.T) {
	edges := []Edge{{7, 8}, {9, 10}, {11, 12}}
	got, err := ReadEdges(&onebyte{b: EdgesToBytes(edges)})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(edges) {
		t.Fatalf("read %d edges, want %d", len(got), len(edges))
	}
	for i := range edges {
		if got[i] != edges[i] {
			t.Errorf("edge %d = %v, want %v", i, got[i], edges[i])
		}
	}
}

func TestBytesToEdgesProperty(t *testing.T) {
	f := func(pairs []uint32) bool {
		if len(pairs)%2 == 1 {
			pairs = pairs[:len(pairs)-1]
		}
		edges := make([]Edge, len(pairs)/2)
		for i := range edges {
			edges[i] = Edge{VertexID(pairs[2*i]), VertexID(pairs[2*i+1])}
		}
		got, err := BytesToEdges(EdgesToBytes(edges))
		if err != nil || len(got) != len(edges) {
			return false
		}
		for i := range edges {
			if got[i] != edges[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBytesToEdgesBadLength(t *testing.T) {
	if _, err := BytesToEdges(make([]byte, 7)); err == nil {
		t.Fatal("expected error for non-multiple length")
	}
}

func TestMetaValidate(t *testing.T) {
	good := Meta{Name: "g", Vertices: 10, Edges: 5}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid meta rejected: %v", err)
	}
	bad := []Meta{
		{Name: "", Vertices: 10},
		{Name: "g", Vertices: 0},
		{Name: "g", Vertices: uint64(NoVertex) + 1},
	}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("meta %+v: expected validation error", m)
		}
	}
}

func TestMetaCheckEdge(t *testing.T) {
	m := Meta{Name: "g", Vertices: 10, Edges: 1}
	if err := m.CheckEdge(Edge{9, 0}); err != nil {
		t.Errorf("valid edge rejected: %v", err)
	}
	if err := m.CheckEdge(Edge{10, 0}); err == nil {
		t.Error("out-of-range source accepted")
	}
	if err := m.CheckEdge(Edge{0, 10}); err == nil {
		t.Error("out-of-range destination accepted")
	}
}

func TestMetaDataBytes(t *testing.T) {
	m := Meta{Name: "g", Vertices: 4, Edges: 10}
	if got := m.DataBytes(); got != 80 {
		t.Errorf("unweighted DataBytes = %d, want 80", got)
	}
	m.Weighted = true
	if got := m.DataBytes(); got != 120 {
		t.Errorf("weighted DataBytes = %d, want 120", got)
	}
}

func TestConfigRoundTrip(t *testing.T) {
	m := Meta{Name: "rmat22", Vertices: 1 << 22, Edges: 1 << 26, Weighted: true, Undirected: true}
	var buf bytes.Buffer
	if err := WriteConfig(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadConfig(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("round trip = %+v, want %+v", got, m)
	}
}

func TestReadConfigCommentsAndUnknownKeys(t *testing.T) {
	in := `# a comment
name = g

vertices = 5
edges = 3
future_key = whatever
`
	m, err := ReadConfig(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.Name != "g" || m.Vertices != 5 || m.Edges != 3 {
		t.Fatalf("parsed %+v", m)
	}
}

func TestReadConfigErrors(t *testing.T) {
	cases := []string{
		"name g\n",                                   // missing '='
		"name = g\nvertices = nope\n",                // bad integer
		"name = g\nvertices = 0\n",                   // fails validation
		"vertices = 5\nedges = 1\n",                  // missing name
		"name = g\nvertices = 5\nweighted = maybe\n", // bad bool
	}
	for _, in := range cases {
		if _, err := ReadConfig(strings.NewReader(in)); err == nil {
			t.Errorf("config %q: expected error", in)
		}
	}
}

func TestNewPartitioningEvenSplit(t *testing.T) {
	pt, err := NewPartitioning(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if pt.P() != 3 {
		t.Fatalf("P = %d, want 3", pt.P())
	}
	wantSizes := []uint64{4, 3, 3}
	var total uint64
	for i := 0; i < pt.P(); i++ {
		if got := pt.Size(i); got != wantSizes[i] {
			t.Errorf("partition %d size = %d, want %d", i, got, wantSizes[i])
		}
		total += pt.Size(i)
	}
	if total != 10 {
		t.Fatalf("sizes sum to %d, want 10", total)
	}
}

func TestPartitioningIntervalsAreContiguousAndDisjoint(t *testing.T) {
	f := func(vertices uint16, p uint8) bool {
		v := uint64(vertices)%10000 + 1
		pp := int(p)%32 + 1
		if uint64(pp) > v {
			pp = int(v)
		}
		pt, err := NewPartitioning(v, pp)
		if err != nil {
			return false
		}
		var prev VertexID
		for i := 0; i < pt.P(); i++ {
			lo, hi := pt.Interval(i)
			if lo != prev || hi < lo {
				return false
			}
			prev = hi
		}
		return uint64(prev) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPartitioningOf checks the closed-form Of against the interval
// table it must agree with: exhaustively for every vertex of every
// (V, P) with V <= 300, and at every interval boundary for vertex counts
// at the top of the VertexID space, where the 32-bit arithmetic is
// tightest.
func TestPartitioningOf(t *testing.T) {
	check := func(pt *Partitioning, v VertexID) {
		i := pt.Of(v)
		if i < 0 || i >= pt.P() || !pt.Contains(i, v) {
			t.Fatalf("V=%d P=%d: Of(%d) = %d, which does not contain it", pt.Vertices(), pt.P(), v, i)
		}
		if lo, hi := pt.Interval(i); v < lo || v >= hi {
			t.Fatalf("V=%d P=%d: Of(%d) = %d, interval [%d,%d)", pt.Vertices(), pt.P(), v, i, lo, hi)
		}
	}
	for v := uint64(1); v <= 300; v++ {
		for p := 1; uint64(p) <= v; p++ {
			pt, err := NewPartitioning(v, p)
			if err != nil {
				t.Fatal(err)
			}
			for u := VertexID(0); uint64(u) < v; u++ {
				check(pt, u)
			}
		}
	}
	for _, v := range []uint64{1<<32 - 1, 1<<32 - 2, 1 << 31, 1<<31 + 1} {
		for _, p := range []int{1, 2, 3, 7, 1000, 65536, 65537} {
			pt, err := NewPartitioning(v, p)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < pt.P(); i++ {
				lo, hi := pt.Interval(i)
				check(pt, lo)
				check(pt, hi-1)
				check(pt, lo+(hi-lo)/2)
			}
		}
	}
	if _, err := NewPartitioning(1<<32, 1); err == nil {
		t.Error("vertex count beyond the VertexID space accepted")
	}
}

func TestPartitioningOfPanicsOutOfRange(t *testing.T) {
	pt, _ := NewPartitioning(10, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range vertex")
		}
	}()
	pt.Of(10)
}

func TestNewPartitioningErrors(t *testing.T) {
	if _, err := NewPartitioning(10, 0); err == nil {
		t.Error("p=0 accepted")
	}
	if _, err := NewPartitioning(3, 4); err == nil {
		t.Error("p>vertices accepted")
	}
}

func TestPartitionsForMemory(t *testing.T) {
	// 1000 vertices at 16 bytes each = 16000 bytes total.
	if got := PartitionsForMemory(1000, 16, 16000); got != 1 {
		t.Errorf("whole graph fits: got %d partitions, want 1", got)
	}
	if got := PartitionsForMemory(1000, 16, 4000); got != 4 {
		t.Errorf("quarter budget: got %d partitions, want 4", got)
	}
	if got := PartitionsForMemory(1000, 16, 1); got != 1000 {
		t.Errorf("tiny budget: got %d, want vertex count cap 1000", got)
	}
	if got := PartitionsForMemory(1000, 16, 0); got != 1 {
		t.Errorf("zero budget sentinel: got %d, want 1", got)
	}
}

func TestDegreesAndSummary(t *testing.T) {
	edges := []Edge{{0, 1}, {0, 2}, {0, 3}, {1, 0}, {2, 0}}
	deg := Degrees(5, edges)
	want := []uint32{3, 1, 1, 0, 0}
	for i := range want {
		if deg[i] != want[i] {
			t.Errorf("deg[%d] = %d, want %d", i, deg[i], want[i])
		}
	}
	s := SummarizeDegrees(deg)
	if s.Min != 0 || s.Max != 3 || s.Isolated != 2 {
		t.Errorf("summary = %+v", s)
	}
	if s.Mean != 1.0 {
		t.Errorf("mean = %v, want 1.0", s.Mean)
	}
}

func TestSummarizeDegreesEmpty(t *testing.T) {
	s := SummarizeDegrees(nil)
	if s != (DegreeStats{}) {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestEdgeHelpers(t *testing.T) {
	e := Edge{3, 7}
	if e.Reverse() != (Edge{7, 3}) {
		t.Error("Reverse wrong")
	}
	if e.SelfLoop() {
		t.Error("3->7 is not a self loop")
	}
	if !(Edge{5, 5}).SelfLoop() {
		t.Error("5->5 is a self loop")
	}
	if e.String() != "3->7" {
		t.Errorf("String = %q", e.String())
	}
}
