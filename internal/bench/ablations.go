package bench

import (
	"fmt"

	"fastbfs/internal/core"
	"fastbfs/internal/disksim"
	"fastbfs/internal/gen"
	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

// Ablations probe the design knobs the paper describes qualitatively:
// the trim threshold (§II-C3), the tunable stay buffers (§III), the
// grace-and-cancel policy (§II-C2), and the two headline features
// themselves.

// AblTrimStart sweeps TrimStartIteration on both a fast-converging
// scale-free graph and a high-diameter path — the case the paper says
// motivates delaying trimming — and closes each graph with the rule the
// library defaults to: no threshold, each scatter trims when its
// partition's edge counts say the stay file pays.
func AblTrimStart(cfg Config) (*Table, error) {
	vol := storage.NewMem()
	ds, err := BuildTuneDataset(vol, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	// A long path with extra weight: each vertex also points at a few
	// earlier vertices, so the graph is large but converges one vertex
	// per level.
	pm, pedges, err := gen.Path(uint64(cfg.Scale.PathVertices))
	if err != nil {
		return nil, err
	}
	for v := uint64(2); v < pm.Vertices; v += 2 {
		pedges = append(pedges, graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID(v / 2)})
	}
	pm.Edges = uint64(len(pedges))
	if err := graph.Store(vol, pm, pedges); err != nil {
		return nil, err
	}
	pathDS := Dataset{PaperName: "high-diameter path", Meta: pm, Root: 0, Budget: scaledBudget(pm, cfg.Scale)}

	t := &Table{
		ID: "abl-trimstart", Title: "Trim threshold sweep",
		Header: []string{"graph", "threshold", "time (s)", "trimmed edges", "stay bytes written (MB)"},
		PaperNote: "\"for early stages ... the stay list is very large, hence the graph trimming cost could be " +
			"very high ... this happens a lot for graphs with high diameters. The easiest way to avoid this " +
			"squander of resources is to start the graph trimming several iterations later, till the stay list " +
			"shrinks to a relatively small proportion\"",
	}
	// row runs FastBFS on d under one trim setting and files the result:
	// the paper's engine (runFastBFS) for its thresholds, core.Run as it is
	// for the rule the library defaults to.
	row := func(d Dataset, label string, run func(storage.Volume, string, core.Options) (*xstream.Result, error), o core.Options) error {
		o.Base = baseOpts(d, hddSim(cfg.Scale))
		res, err := run(vol, d.Meta.Name, o)
		if err != nil {
			return err
		}
		t.AddRow(d.PaperName, label, secs(res.Metrics.ExecTime),
			fmt.Sprintf("%d", res.Metrics.TrimmedEdges), mb(res.Metrics.BytesWritten))
		return nil
	}
	// Fast-converging graph: iteration-count threshold.
	for _, start := range []int{0, 1, 2, 4, 8} {
		if err := row(ds, fmt.Sprintf("start at iter %d", start), runFastBFS, core.Options{TrimStartIteration: start}); err != nil {
			return nil, err
		}
	}
	if err := row(ds, "model", core.Run, core.Options{}); err != nil {
		return nil, err
	}
	// High-diameter path: trimming every iteration rewrites a nearly
	// whole graph once per vertex; the visited-fraction threshold ("till
	// the stay list shrinks") is the remedy.
	for _, frac := range []float64{0, 0.5, 0.9} {
		if err := row(pathDS, fmt.Sprintf("visited >= %.0f%%", 100*frac), runFastBFS, core.Options{TrimVisitedFraction: frac}); err != nil {
			return nil, err
		}
	}
	if err := row(pathDS, "trimming off", runFastBFS, core.Options{DisableTrimming: true}); err != nil {
		return nil, err
	}
	if err := row(pathDS, "model", core.Run, core.Options{}); err != nil {
		return nil, err
	}
	return t, nil
}

// AblStayBuffers sweeps the stay writer's private buffer pool.
func AblStayBuffers(cfg Config) (*Table, error) {
	vol := storage.NewMem()
	ds, err := BuildTuneDataset(vol, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "abl-staybuf", Title: "Stay buffer count sweep (buffer size = 16 KiB)",
		Header: []string{"buffers", "time (s)", "buffer waits", "cancellations"},
		PaperNote: "\"the edge buffer count and size are made tunable, user can utilize larger memory space and " +
			"more edge buffers\" to avoid stalling on buffer exhaustion",
	}
	for _, count := range []int{1, 2, 4, 8, 32} {
		o := core.Options{Base: baseOpts(ds, hddSim(cfg.Scale)), StayBufSize: 16 << 10, StayBufCount: count}
		res, err := runFastBFS(vol, ds.Meta.Name, o)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", count), secs(res.Metrics.ExecTime),
			fmt.Sprintf("%d", res.Metrics.StayBufferWaits), fmt.Sprintf("%d", res.Metrics.Cancellations))
	}
	return t, nil
}

// AblGrace sweeps the cancellation grace period against a slow stay
// device, where waiting longer trades stalls for trimmed input.
func AblGrace(cfg Config) (*Table, error) {
	vol := storage.NewMem()
	ds, err := BuildTuneDataset(vol, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	mkSim := func() *xstream.SimConfig {
		s := hddSim(cfg.Scale)
		// A dedicated stay disk 20x slower than the main disk: stay files
		// are routinely late, so the grace period matters.
		stay := disksim.HDDScaled("slowstay", cfg.Scale.Factor)
		stay.Bandwidth /= 20
		s.StayDisk = stay
		return s
	}
	t := &Table{
		ID: "abl-grace", Title: "Cancellation grace period sweep (slow dedicated stay disk)",
		Header: []string{"grace (s)", "time (s)", "cancellations", "bytes read (MB)"},
		PaperNote: "\"FastBFS waits for a short amount of time for the completion. If the time is out, it takes " +
			"the previous edge file as the input instead, and cancels the unfinished stay list writing\"",
	}
	for _, grace := range []float64{1e-9, 1e-5, 1e-3, 1e-1, 10} {
		o := core.Options{Base: baseOpts(ds, mkSim()), GracePeriod: grace}
		res, err := runFastBFS(vol, ds.Meta.Name, o)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%g", grace), secs(res.Metrics.ExecTime),
			fmt.Sprintf("%d", res.Metrics.Cancellations), mb(res.Metrics.BytesRead))
	}
	return t, nil
}

// AblFeatures toggles trimming and selective scheduling independently,
// with X-Stream as the no-feature reference.
func AblFeatures(cfg Config) (*Table, error) {
	vol := storage.NewMem()
	ds, err := BuildTuneDataset(vol, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "abl-features", Title: "Feature ablation: trimming x selective scheduling (8 partitions)",
		Header: []string{"configuration", "time (s)", "bytes read (MB)", "bytes written (MB)", "skipped"},
		PaperNote: "the paper attributes FastBFS's win to reduced input volume (trimming) plus skipped " +
			"partitions (selective scheduling); disabling both should recover X-Stream",
	}
	// Force several partitions so selective scheduling has something to
	// skip (the comparison datasets fit their vertex sets in one).
	mkBase := func(filter bool) xstream.Options {
		o := baseOpts(ds, hddSim(cfg.Scale))
		o.Partitions = 8
		o.DisableUpdateFilter = !filter
		return o
	}
	// The last two rows go beyond the paper: the update filter (DESIGN.md
	// §18) drops dead updates before the shuffle, in either engine.
	for _, c := range []struct {
		label                        string
		xs, noTrim, noSelSch, filter bool
	}{
		{label: "xstream (reference)", xs: true},
		{label: "fastbfs full"},
		{label: "fastbfs, no trimming", noTrim: true},
		{label: "fastbfs, no selective scheduling", noSelSch: true},
		{label: "fastbfs, neither", noTrim: true, noSelSch: true},
		{label: "xstream + update filter", xs: true, filter: true},
		{label: "fastbfs full + update filter", filter: true},
	} {
		var res *xstream.Result
		var err error
		skipped := "-"
		if c.xs {
			res, err = xstream.Run(vol, ds.Meta.Name, mkBase(c.filter))
		} else {
			res, err = runFastBFS(vol, ds.Meta.Name, core.Options{
				Base:                       mkBase(c.filter),
				DisableTrimming:            c.noTrim,
				DisableSelectiveScheduling: c.noSelSch,
			})
		}
		if err != nil {
			return nil, err
		}
		if !c.xs {
			skipped = fmt.Sprintf("%d", res.Metrics.Skipped)
		}
		t.AddRow(c.label, secs(res.Metrics.ExecTime), mb(res.Metrics.BytesRead), mb(res.Metrics.BytesWritten), skipped)
	}
	return t, nil
}
