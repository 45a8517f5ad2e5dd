package bench

import (
	"fmt"

	"fastbfs/internal/gen"
	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
)

// Scale maps the paper's datasets and testbed onto a size this harness
// can run. Everything scales together: the five Table II datasets shrink
// by ~Factor, the device's positioning cost shrinks by the same Factor
// (preserving the paper's seek:transfer balance — DESIGN.md §6), and the
// memory budgets shrink so the partition counts and the Fig. 9
// in-memory cliff land where the paper's did.
type Scale struct {
	Name string
	// Factor is the approximate edge-count ratio between the paper's
	// mid dataset (rmat25, 536.8M edges) and this scale's stand-in. The
	// simulated devices' seek latency is divided by it.
	Factor float64

	// R-MAT scales for the Table II stand-ins (edge factor 16, per
	// Graph500). Tune is the small rmat22 stand-in used by Figs. 8–9.
	TuneScale, MidScale, LargeScale int
	// TwitterScale / FriendsterScale size the social-graph stand-ins.
	TwitterScale, FriendsterScale int

	// PathVertices sizes abl-trimstart's high-diameter path, whose runs
	// take one iteration per vertex and so grow with its square.
	PathVertices int

	// MemoryFrac is the default working-memory budget as a fraction of
	// each dataset's edge-data size (the paper's 4 GB against rmat25's
	// 6 GB ≈ 2/3).
	MemoryFrac float64
}

// Scales returns the named presets.
func Scales() map[string]Scale {
	return map[string]Scale{
		"tiny": {
			Name: "tiny", Factor: 8192,
			TuneScale: 10, MidScale: 12, LargeScale: 14,
			TwitterScale: 13, FriendsterScale: 13,
			PathVertices: 5000,
			MemoryFrac:   2.0 / 3.0,
		},
		"small": {
			Name: "small", Factor: 2048,
			TuneScale: 12, MidScale: 14, LargeScale: 16,
			TwitterScale: 15, FriendsterScale: 15,
			PathVertices: 20000,
			MemoryFrac:   2.0 / 3.0,
		},
		"medium": {
			Name: "medium", Factor: 256,
			TuneScale: 15, MidScale: 17, LargeScale: 19,
			TwitterScale: 18, FriendsterScale: 18,
			PathVertices: 20000,
			MemoryFrac:   2.0 / 3.0,
		},
	}
}

// ScaleByName looks up a preset.
func ScaleByName(name string) (Scale, error) {
	s, ok := Scales()[name]
	if !ok {
		return Scale{}, fmt.Errorf("bench: unknown scale %q (tiny, small, medium)", name)
	}
	return s, nil
}

// Dataset is one evaluation workload, generated and stored on a volume.
type Dataset struct {
	// PaperName is the dataset the paper used ("rmat25", "twitter_rv",
	// ...); Meta.Name is the scaled stand-in's name.
	PaperName string
	Meta      graph.Meta
	Root      graph.VertexID
	// Budget is the scaled default working-memory budget for this
	// dataset.
	Budget uint64
}

// edgeFactor is the Graph500 edge factor used for all rmat datasets.
const edgeFactor = 16

// BuildDatasets generates and stores the four comparison datasets of
// Figs. 4–7 and 10 (rmat25, rmat27, twitter_rv, friendster stand-ins) on
// vol. Roots are the highest-out-degree vertices, per Graph500 practice.
func BuildDatasets(vol storage.Volume, sc Scale, seed int64) ([]Dataset, error) {
	// Tendril lengths restore each dataset's BFS-level count at reduced
	// scale: real BFS on rmat25/27 runs ~9-10 levels, twitter ~13,
	// friendster ~20+ (DESIGN.md §6); the scale-free core alone
	// converges in ~5 at these sizes.
	specs := []struct {
		paper      string
		gen        func() (graph.Meta, []graph.Edge, error)
		tendrilLen int
		undirected bool
	}{
		{"rmat25", func() (graph.Meta, []graph.Edge, error) {
			return gen.RMAT(sc.MidScale, edgeFactor, gen.Graph500(), seed)
		}, 5, false},
		{"rmat27", func() (graph.Meta, []graph.Edge, error) {
			return gen.RMAT(sc.LargeScale, edgeFactor, gen.Graph500(), seed+1)
		}, 6, false},
		{"twitter_rv", func() (graph.Meta, []graph.Edge, error) { return gen.TwitterLike(sc.TwitterScale, seed+2) }, 7, false},
		{"friendster", func() (graph.Meta, []graph.Edge, error) { return gen.FriendsterLike(sc.FriendsterScale, seed+3) }, 10, true},
	}
	var out []Dataset
	for _, spec := range specs {
		m, edges, err := spec.gen()
		if err != nil {
			return nil, err
		}
		m, edges = gen.AddTendrils(m, edges, int(m.Vertices/512), spec.tendrilLen, spec.undirected, seed+99)
		if err := graph.Store(vol, m, edges); err != nil {
			return nil, err
		}
		out = append(out, Dataset{
			PaperName: spec.paper,
			Meta:      m,
			Root:      maxDegreeVertex(m, edges),
			Budget:    scaledBudget(m, sc),
		})
	}
	return out, nil
}

// BuildTuneDataset generates the rmat22 stand-in used for parameter
// studies (Figs. 8 and 9).
func BuildTuneDataset(vol storage.Volume, sc Scale, seed int64) (Dataset, error) {
	m, edges, err := gen.RMAT(sc.TuneScale, edgeFactor, gen.Graph500(), seed+10)
	if err != nil {
		return Dataset{}, err
	}
	m, edges = gen.AddTendrils(m, edges, int(m.Vertices/512), 5, false, seed+98)
	if err := graph.Store(vol, m, edges); err != nil {
		return Dataset{}, err
	}
	return Dataset{
		PaperName: "rmat22",
		Meta:      m,
		Root:      maxDegreeVertex(m, edges),
		Budget:    scaledBudget(m, sc),
	}, nil
}

func scaledBudget(m graph.Meta, sc Scale) uint64 {
	b := uint64(float64(m.DataBytes()) * sc.MemoryFrac)
	if b < 4096 {
		b = 4096
	}
	return b
}

// PaperBudgets maps the paper's Fig. 9 memory sweep (256 MB – 4 GB over
// rmat22's 768 MB dataset) onto a scaled dataset: each budget keeps the
// paper's budget/dataset ratio.
func PaperBudgets(m graph.Meta) []struct {
	Label string
	Bytes uint64
} {
	const paperData = 768 << 20 // rmat22 binary size
	out := []struct {
		Label string
		Bytes uint64
	}{}
	for _, b := range []struct {
		label string
		bytes uint64
	}{
		{"256MB", 256 << 20},
		{"512MB", 512 << 20},
		{"1GB", 1 << 30},
		{"2GB", 2 << 30},
		{"4GB", 4 << 30},
	} {
		scaled := uint64(float64(b.bytes) / paperData * float64(m.DataBytes()))
		if scaled < 1024 {
			scaled = 1024
		}
		out = append(out, struct {
			Label string
			Bytes uint64
		}{b.label, scaled})
	}
	return out
}

func maxDegreeVertex(m graph.Meta, edges []graph.Edge) graph.VertexID {
	deg := graph.Degrees(m.Vertices, edges)
	best := graph.VertexID(0)
	var bd uint32
	for v, d := range deg {
		if d > bd {
			best, bd = graph.VertexID(v), d
		}
	}
	return best
}
