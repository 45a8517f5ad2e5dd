package bench

import (
	"fmt"

	"fastbfs/internal/bfs"
	"fastbfs/internal/core"
	"fastbfs/internal/disksim"
	"fastbfs/internal/graphchi"
	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

// Device builders: fresh devices per run so counters and timelines never
// leak between measurements. The positioning cost is scaled with the
// dataset (DESIGN.md §6).

func hddSim(sc Scale) *xstream.SimConfig {
	return &xstream.SimConfig{
		CPU:      disksim.DefaultCPU(),
		Costs:    disksim.DefaultCosts(),
		MainDisk: disksim.HDDScaled("hdd0", sc.Factor),
	}
}

func hdd2Sim(sc Scale) *xstream.SimConfig {
	s := hddSim(sc)
	s.AuxDisk = disksim.HDDScaled("hdd1", sc.Factor)
	return s
}

func ssdSim(sc Scale) *xstream.SimConfig {
	return &xstream.SimConfig{
		CPU:      disksim.DefaultCPU(),
		Costs:    disksim.DefaultCosts(),
		MainDisk: disksim.SSDScaled("ssd0", sc.Factor),
	}
}

func baseOpts(ds Dataset, sim *xstream.SimConfig) xstream.Options {
	return xstream.Options{
		Root:         ds.Root,
		MemoryBudget: ds.Budget,
		Threads:      4,
		// Stream buffers scale with the datasets (the paper's ~MB-sized
		// buffers against GB-sized graphs): buffers must stay small
		// relative to per-iteration stream volumes or flushes degenerate
		// to one blocking write at each phase boundary.
		StreamBufSize: 32 << 10,
		// Deep read-ahead (the paper's tunable edge-buffer count, §III):
		// with the scatter input opened before the gather, its prefetch
		// overlaps the update streaming on the other disk.
		PrefetchBuffers: 8,
		Sim:             sim,
		// The paper's engines shuffle one update per frontier out-edge;
		// the figures reproduce them, so the update filter (DESIGN.md §18)
		// stays off here and is measured as an ablation row of its own.
		DisableUpdateFilter: true,
	}
}

// runFastBFS runs FastBFS as the paper has it, which trims at every
// scatter unless o delays the start: the tables reproduce the paper's
// engine, and the edge-count rule the library defaults to is measured as
// abl-trimstart's row of its own (as baseOpts does for the update filter).
func runFastBFS(vol storage.Volume, graphName string, o core.Options) (*xstream.Result, error) {
	if o.TrimStartIteration == 0 {
		o.TrimStartIteration = core.TrimEveryIteration
	}
	return core.Run(vol, graphName, o)
}

// runTriple runs GraphChi, X-Stream and FastBFS on one dataset with
// fresh single-disk devices, verifying all three agree.
func runTriple(cfg Config, vol storage.Volume, ds Dataset, mkSim func(Scale) *xstream.SimConfig) (gc, xs, fb *xstream.Result, err error) {
	cfg.logf("  %s (%s): graphchi", ds.PaperName, ds.Meta.Name)
	gc, err = graphchi.Run(vol, ds.Meta.Name, baseOpts(ds, mkSim(cfg.Scale)))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("graphchi on %s: %w", ds.Meta.Name, err)
	}
	cfg.logf("  %s: xstream", ds.PaperName)
	xs, err = xstream.Run(vol, ds.Meta.Name, baseOpts(ds, mkSim(cfg.Scale)))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("xstream on %s: %w", ds.Meta.Name, err)
	}
	cfg.logf("  %s: fastbfs", ds.PaperName)
	fb, err = runFastBFS(vol, ds.Meta.Name, core.Options{Base: baseOpts(ds, mkSim(cfg.Scale))})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("fastbfs on %s: %w", ds.Meta.Name, err)
	}
	if gc.Visited != xs.Visited || xs.Visited != fb.Visited {
		return nil, nil, nil, fmt.Errorf("engines disagree on %s: graphchi=%d xstream=%d fastbfs=%d",
			ds.Meta.Name, gc.Visited, xs.Visited, fb.Visited)
	}
	return gc, xs, fb, nil
}

func secs(t float64) string     { return fmt.Sprintf("%.4f", t) }
func ratio(a, b float64) string { return fmt.Sprintf("%.2fx", a/b) }
func mb(n int64) string         { return fmt.Sprintf("%.2f", float64(n)/1e6) }

// Fig1 regenerates the paper's convergence illustration: the fraction of
// edges still useful as BFS proceeds, on the rmat25 stand-in.
func Fig1(cfg Config) (*Table, error) {
	vol := storage.NewMem()
	ds, err := BuildDatasets(vol, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	mid := ds[0]
	m, edges, err := xstream.LoadEdges(vol, mid.Meta.Name)
	if err != nil {
		return nil, err
	}
	stats, err := bfs.Convergence(m, edges, mid.Root)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig1",
		Title:  "BFS convergence: live (untrimmed) edges per level on " + mid.Meta.Name,
		Header: []string{"level", "frontier", "useful edges", "live edges", "live %"},
		PaperNote: "the worked example converges 100% -> <88% -> <55% of edges in three levels; " +
			"scale-free graphs collapse within a few levels",
	}
	for _, s := range stats {
		t.AddRow(
			fmt.Sprintf("%d", s.Level),
			fmt.Sprintf("%d", s.Frontier),
			fmt.Sprintf("%d", s.UsefulEdges),
			fmt.Sprintf("%d", s.LiveEdges),
			fmt.Sprintf("%.1f%%", 100*float64(s.LiveEdges)/float64(m.Edges)),
		)
	}
	if len(stats) >= 3 {
		t.AddNote("live edges after level 0: %.1f%%, after level 1: %.1f%%",
			100*float64(stats[1].LiveEdges)/float64(m.Edges),
			100*float64(stats[2].LiveEdges)/float64(m.Edges))
	}
	return t, nil
}

// TableI reproduces the graph representation comparison. It is
// structural, so the rows are verified facts about the implementations
// rather than measurements.
func TableI(cfg Config) (*Table, error) {
	t := &Table{
		ID:     "table1",
		Title:  "Graph representation comparison",
		Header: []string{"system", "vertex", "edge", "intermediate"},
		PaperNote: "GraphChi: vertex sets + in-edge sets; X-Stream: vertex sets + out-edge sets + update files; " +
			"FastBFS: vertex sets + out-edge sets + update files + stay files",
	}
	t.AddRow("GraphChi", "vertex sets", "in-edge sets (sorted shards)", "-")
	t.AddRow("X-Stream", "vertex sets", "out-edge sets", "update files")
	t.AddRow("FastBFS", "vertex sets", "out-edge sets", "update files, stay files")
	t.AddNote("file inventories verified by TestWorkingSetInventory in internal/bench")
	return t, nil
}

// TableII lists the scaled experimental graphs next to the paper's.
func TableII(cfg Config) (*Table, error) {
	vol := storage.NewMem()
	ds, err := BuildDatasets(vol, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	tune, err := BuildTuneDataset(vol, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	paper := map[string]string{
		"rmat22":     "4.2M / 67.1M / 768MB",
		"rmat25":     "33.6M / 536.8M / 6GB",
		"rmat27":     "134.2M / 2.1B / 24GB",
		"twitter_rv": "61.62M / 1.5B / 11GB",
		"friendster": "124.8M / 1.8B / 14GB",
	}
	t := &Table{
		ID:     "table2",
		Title:  fmt.Sprintf("Experimental graphs (scale preset %q)", cfg.Scale.Name),
		Header: []string{"paper dataset", "stand-in", "vertices", "edges", "size (MB)", "paper (V/E/size)"},
		PaperNote: "generated per Graph500 spec (rmat) and as scale-free stand-ins (twitter, friendster); " +
			"see DESIGN.md for the substitution argument",
	}
	all := append([]Dataset{tune}, ds...)
	for _, d := range all {
		t.AddRow(d.PaperName, d.Meta.Name,
			fmt.Sprintf("%d", d.Meta.Vertices),
			fmt.Sprintf("%d", d.Meta.Edges),
			mb(int64(d.Meta.DataBytes())),
			paper[d.PaperName])
	}
	return t, nil
}

// Fig4 regenerates the HDD execution-time comparison.
func Fig4(cfg Config) (*Table, error) {
	return execTimeComparison(cfg, "fig4", "Execution time comparison (HDD)", hddSim,
		"FastBFS beats X-Stream by 1.6-2.1x and GraphChi by 2.4-3.9x on HDD (GraphChi preprocessing excluded)")
}

// Fig7 regenerates the SSD execution-time comparison.
func Fig7(cfg Config) (*Table, error) {
	t, err := execTimeComparison(cfg, "fig7", "Performance comparison over SSD", ssdSim,
		"FastBFS beats X-Stream by 1.6-2.3x and GraphChi by 3.7-5.2x on SSD; SSD/HDD speedups: "+
			"GraphChi 1.2-1.5x, X-Stream 1.7-1.9x, FastBFS 1.8-2.1x")
	if err != nil {
		return nil, err
	}
	// Also measure the SSD-vs-HDD improvement per engine on the first
	// dataset, matching the paper's secondary observation.
	vol := storage.NewMem()
	ds, err := BuildDatasets(vol, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	gcH, xsH, fbH, err := runTriple(cfg, vol, ds[0], hddSim)
	if err != nil {
		return nil, err
	}
	gcS, xsS, fbS, err := runTriple(cfg, vol, ds[0], ssdSim)
	if err != nil {
		return nil, err
	}
	t.AddNote("SSD speedup over HDD on %s: graphchi %s, xstream %s, fastbfs %s",
		ds[0].PaperName,
		ratio(gcH.Metrics.ExecTime, gcS.Metrics.ExecTime),
		ratio(xsH.Metrics.ExecTime, xsS.Metrics.ExecTime),
		ratio(fbH.Metrics.ExecTime, fbS.Metrics.ExecTime))
	return t, nil
}

func execTimeComparison(cfg Config, id, title string, mkSim func(Scale) *xstream.SimConfig, paperNote string) (*Table, error) {
	vol := storage.NewMem()
	ds, err := BuildDatasets(vol, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: id, Title: title,
		Header:    []string{"dataset", "graphchi (s)", "xstream (s)", "fastbfs (s)", "vs xstream", "vs graphchi"},
		PaperNote: paperNote,
	}
	minXS, maxXS := 1e18, 0.0
	minGC, maxGC := 1e18, 0.0
	for _, d := range ds {
		gc, xs, fb, err := runTriple(cfg, vol, d, mkSim)
		if err != nil {
			return nil, err
		}
		sxs := xs.Metrics.ExecTime / fb.Metrics.ExecTime
		sgc := gc.Metrics.ExecTime / fb.Metrics.ExecTime
		t.AddRow(d.PaperName, secs(gc.Metrics.ExecTime), secs(xs.Metrics.ExecTime), secs(fb.Metrics.ExecTime),
			fmt.Sprintf("%.2fx", sxs), fmt.Sprintf("%.2fx", sgc))
		minXS, maxXS = minf(minXS, sxs), maxf(maxXS, sxs)
		minGC, maxGC = minf(minGC, sgc), maxf(maxGC, sgc)
	}
	t.AddNote("fastbfs speedup vs xstream: %.2fx-%.2fx; vs graphchi: %.2fx-%.2fx", minXS, maxXS, minGC, maxGC)
	return t, nil
}

// Fig5 regenerates the input-data-amount comparison.
func Fig5(cfg Config) (*Table, error) {
	vol := storage.NewMem()
	ds, err := BuildDatasets(vol, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "fig5", Title: "Comparison in input data amount",
		Header: []string{"dataset", "graphchi read (MB)", "xstream read (MB)", "fastbfs read (MB)", "fastbfs written (MB)", "read reduction", "overall reduction"},
		PaperNote: "FastBFS reduces input data by 65.2% (rmat25) to 78.1% (friendster) vs X-Stream, and overall " +
			"data amount by 47.7%-60.4%; X-Stream has the largest input amount",
	}
	for _, d := range ds {
		gc, xs, fb, err := runTriple(cfg, vol, d, hddSim)
		if err != nil {
			return nil, err
		}
		readRed := 100 * (1 - float64(fb.Metrics.BytesRead)/float64(xs.Metrics.BytesRead))
		totalRed := 100 * (1 - float64(fb.Metrics.TotalBytes())/float64(xs.Metrics.TotalBytes()))
		t.AddRow(d.PaperName,
			mb(gc.Metrics.BytesRead), mb(xs.Metrics.BytesRead), mb(fb.Metrics.BytesRead), mb(fb.Metrics.BytesWritten),
			fmt.Sprintf("%.1f%%", readRed), fmt.Sprintf("%.1f%%", totalRed))
	}
	return t, nil
}

// Fig6 regenerates the iowait-ratio comparison.
func Fig6(cfg Config) (*Table, error) {
	vol := storage.NewMem()
	ds, err := BuildDatasets(vol, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "fig6", Title: "iowait time ratio comparison",
		Header: []string{"dataset", "graphchi", "xstream", "fastbfs"},
		PaperNote: "GraphChi has the lowest iowait ratio (its sort is compute-heavy); FastBFS has roughly " +
			"X-Stream's iowait time but a higher ratio, because it removed both compute and I/O",
	}
	for _, d := range ds {
		gc, xs, fb, err := runTriple(cfg, vol, d, hddSim)
		if err != nil {
			return nil, err
		}
		// GraphChi's ratio includes preprocessing (iostat in the paper
		// sampled the whole execution).
		gcRatio := (gc.Metrics.IOWait + gc.Metrics.PreprocIOWait) / (gc.Metrics.ExecTime + gc.Metrics.PreprocTime)
		t.AddRow(d.PaperName,
			fmt.Sprintf("%.1f%%", 100*gcRatio),
			fmt.Sprintf("%.1f%%", 100*xs.Metrics.IOWaitRatio()),
			fmt.Sprintf("%.1f%%", 100*fb.Metrics.IOWaitRatio()))
	}
	return t, nil
}

// Fig8 regenerates the thread sweep on the rmat22 stand-in.
func Fig8(cfg Config) (*Table, error) {
	vol := storage.NewMem()
	ds, err := BuildTuneDataset(vol, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "fig8", Title: "Performance changes with the number of threads (" + ds.Meta.Name + ")",
		Header: []string{"threads", "xstream (s)", "fastbfs (s)"},
		PaperNote: "both systems gain nothing from extra threads (disk-bound), and degrade slightly past the " +
			"4 physical cores due to scheduling overhead",
	}
	for _, threads := range []int{1, 2, 4, 8} {
		o := baseOpts(ds, hddSim(cfg.Scale))
		o.Threads = threads
		xs, err := xstream.Run(vol, ds.Meta.Name, o)
		if err != nil {
			return nil, err
		}
		o2 := baseOpts(ds, hddSim(cfg.Scale))
		o2.Threads = threads
		fb, err := runFastBFS(vol, ds.Meta.Name, core.Options{Base: o2})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", threads), secs(xs.Metrics.ExecTime), secs(fb.Metrics.ExecTime))
	}
	return t, nil
}

// Fig9 regenerates the memory sweep on the rmat22 stand-in.
func Fig9(cfg Config) (*Table, error) {
	vol := storage.NewMem()
	ds, err := BuildTuneDataset(vol, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "fig9", Title: "Performance changes with the amount of memory utilization (" + ds.Meta.Name + ")",
		Header: []string{"memory (paper-equivalent)", "budget (bytes)", "xstream (s)", "fastbfs (s)"},
		PaperNote: "flat from 256MB to 2GB; sharp drop at 4GB where rmat22 (768MB) fits in memory and " +
			"X-Stream's in-memory mode kicks in",
	}
	for _, b := range PaperBudgets(ds.Meta) {
		o := baseOpts(ds, hddSim(cfg.Scale))
		o.MemoryBudget = b.Bytes
		xs, err := xstream.Run(vol, ds.Meta.Name, o)
		if err != nil {
			return nil, err
		}
		o2 := baseOpts(ds, hddSim(cfg.Scale))
		o2.MemoryBudget = b.Bytes
		fb, err := runFastBFS(vol, ds.Meta.Name, core.Options{Base: o2})
		if err != nil {
			return nil, err
		}
		t.AddRow(b.Label, fmt.Sprintf("%d", b.Bytes), secs(xs.Metrics.ExecTime), secs(fb.Metrics.ExecTime))
	}
	return t, nil
}

// Fig10 regenerates the two-disk comparison.
func Fig10(cfg Config) (*Table, error) {
	vol := storage.NewMem()
	ds, err := BuildDatasets(vol, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "fig10", Title: "Performance comparison with parallel I/O (2 disks)",
		Header: []string{"dataset", "xstream (s)", "fastbfs 1 disk (s)", "fastbfs 2 disks (s)", "vs 1 disk", "vs xstream"},
		PaperNote: "FastBFS with 2 disks beats single-disk FastBFS by 1.6-1.7x and X-Stream by 2.5-3.6x; " +
			"stay-in/stay-out roles switch disks each iteration",
	}
	min1, max1 := 1e18, 0.0
	minX, maxX := 1e18, 0.0
	for _, d := range ds {
		xs, err := xstream.Run(vol, d.Meta.Name, baseOpts(d, hddSim(cfg.Scale)))
		if err != nil {
			return nil, err
		}
		fb1, err := runFastBFS(vol, d.Meta.Name, core.Options{Base: baseOpts(d, hddSim(cfg.Scale))})
		if err != nil {
			return nil, err
		}
		fb2, err := runFastBFS(vol, d.Meta.Name, core.Options{Base: baseOpts(d, hdd2Sim(cfg.Scale))})
		if err != nil {
			return nil, err
		}
		s1 := fb1.Metrics.ExecTime / fb2.Metrics.ExecTime
		sx := xs.Metrics.ExecTime / fb2.Metrics.ExecTime
		t.AddRow(d.PaperName, secs(xs.Metrics.ExecTime), secs(fb1.Metrics.ExecTime), secs(fb2.Metrics.ExecTime),
			fmt.Sprintf("%.2fx", s1), fmt.Sprintf("%.2fx", sx))
		min1, max1 = minf(min1, s1), maxf(max1, s1)
		minX, maxX = minf(minX, sx), maxf(maxX, sx)
	}
	t.AddNote("2-disk speedup vs 1-disk fastbfs: %.2fx-%.2fx; vs xstream: %.2fx-%.2fx", min1, max1, minX, maxX)
	return t, nil
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
