package bench

import (
	"fmt"

	"fastbfs/internal/core"
	"fastbfs/internal/obs"
	"fastbfs/internal/storage"
)

// PhaseBreakdown traces a FastBFS run with the observability layer and
// renders the per-iteration phase breakdown (load / gather / scatter /
// shuffle / stay-write seconds from leaf spans). This is the
// time-resolved view behind the paper's aggregate iowait and input-size
// figures: it shows *where inside an iteration* the time goes and how
// trimming shifts it, and doubles as an end-to-end check that the span
// timeline tiles the simulated execution time.
func PhaseBreakdown(cfg Config) (*Table, error) {
	vol := storage.NewMem()
	ds, err := BuildTuneDataset(vol, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}

	col := &obs.Collect{}
	tr := obs.New(col)
	o := baseOpts(ds, hddSim(cfg.Scale))
	o.Tracer = tr

	cfg.logf("  %s (%s): fastbfs traced", ds.PaperName, ds.Meta.Name)
	res, err := runFastBFS(vol, ds.Meta.Name, core.Options{Base: o})
	if err != nil {
		return nil, fmt.Errorf("fastbfs traced on %s: %w", ds.Meta.Name, err)
	}
	sum := obs.Summarize(col.Events())

	t := &Table{
		ID:    "phases",
		Title: "Per-iteration phase breakdown (FastBFS, HDD, traced)",
		PaperNote: "the paper reports per-run aggregates (exec time, iowait ratio, input amount); " +
			"this table resolves one run into the §III pipeline phases over time",
	}
	t.Header = append(t.Header, "iter")
	for _, ph := range sum.Phases {
		t.Header = append(t.Header, ph+" (s)")
	}
	t.Header = append(t.Header, "total (s)")
	for _, ip := range sum.Iters {
		label := fmt.Sprintf("%d", ip.Iter)
		if ip.Iter < 0 {
			label = "setup"
		}
		row := []string{label}
		for _, ph := range sum.Phases {
			row = append(row, fmt.Sprintf("%.4f", ip.Phase[ph]))
		}
		row = append(row, fmt.Sprintf("%.4f", ip.Total))
		t.AddRow(row...)
	}
	t.AddNote("leaf-span sum %.4f s vs metrics exec time %.4f s (%.1f%% covered)",
		sum.LeafTotal, res.Metrics.ExecTime, 100*sum.LeafTotal/res.Metrics.ExecTime)
	if c := sum.Counters; c != nil {
		t.AddNote("final counters: edges_streamed=%d updates_emitted=%d stay_edges=%d cancellations=%d",
			c[obs.CtrEdgesStreamed], c[obs.CtrUpdatesEmitted], c[obs.CtrStayEdges], c[obs.CtrCancellations])
	}
	return t, nil
}
