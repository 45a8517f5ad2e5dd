package algo

import (
	"context"
	"fmt"
	"math/rand"

	"fastbfs/internal/core"
	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

// DiameterEstimate is the result of a sampled eccentricity sweep.
type DiameterEstimate struct {
	// LowerBound is the largest BFS depth observed — a lower bound on
	// the graph's (directed) diameter.
	LowerBound int
	// Samples is the number of BFS runs performed.
	Samples int
	// PerSample holds (root, depth, visited) per run.
	PerSample []SampleEccentricity
}

// SampleEccentricity is one BFS sweep from one root.
type SampleEccentricity struct {
	Root    graph.VertexID
	Depth   int
	Visited uint64
}

// EstimateDiameter lower-bounds a stored graph's diameter by running
// FastBFS from `samples` random roots with nonzero out-degree — the
// "graph diameter finding" application the paper's introduction
// motivates as a BFS building block (§IV-A). The opts' Root field is
// overwritten per sample.
func EstimateDiameter(vol storage.Volume, graphName string, samples int, seed int64, opts core.Options) (*DiameterEstimate, error) {
	return EstimateDiameterContext(context.Background(), vol, graphName, samples, seed, opts)
}

// EstimateDiameterContext is EstimateDiameter with a cancellation
// context, checked between samples and inside each underlying BFS run.
func EstimateDiameterContext(ctx context.Context, vol storage.Volume, graphName string, samples int, seed int64, opts core.Options) (*DiameterEstimate, error) {
	if samples < 1 {
		return nil, fmt.Errorf("algo: need at least one sample")
	}
	m, edges, err := xstream.LoadEdges(vol, graphName)
	if err != nil {
		return nil, err
	}
	deg := graph.Degrees(m.Vertices, edges)
	var candidates []graph.VertexID
	for v, d := range deg {
		if d > 0 {
			candidates = append(candidates, graph.VertexID(v))
		}
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("algo: graph %s has no vertex with out-edges", graphName)
	}
	rng := rand.New(rand.NewSource(seed))
	est := &DiameterEstimate{Samples: samples}
	for i := 0; i < samples; i++ {
		root := candidates[rng.Intn(len(candidates))]
		opts.Base.Root = root
		res, err := core.RunContext(ctx, vol, graphName, opts)
		if err != nil {
			return nil, err
		}
		depth := 0
		for _, l := range res.Levels {
			if l != xstream.NoLevel && int(l) > depth {
				depth = int(l)
			}
		}
		est.PerSample = append(est.PerSample, SampleEccentricity{Root: root, Depth: depth, Visited: res.Visited})
		if depth > est.LowerBound {
			est.LowerBound = depth
		}
	}
	return est, nil
}
