package bench

import (
	"fmt"

	"fastbfs/internal/core"
	"fastbfs/internal/gen"
	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
)

// CodecSweep measures the storage codecs on the rmat generator: the
// fixed-width baseline against the block-compressed delta codec, with
// and without degree reordering. Compression is a device-traffic
// optimization exactly like trimming and direction switching — the
// engine streams fewer device bytes for the same logical records and
// pays a MemBandwidth decode charge instead — so total device bytes
// (and with them simulated time on the bandwidth-starved HDD) must
// drop while the BFS output stays byte-identical per reorder setting.
//
// Two gates are enforced at the acceptance scale (rmat >= 2^12):
// delta must move strictly fewer device bytes than fixed, and
// delta+reorder must move at least 20% fewer.
func CodecSweep(cfg Config) (*Table, error) {
	m, edges, err := gen.RMAT(cfg.Scale.TuneScale, 8, gen.Graph500(), cfg.Seed+10)
	if err != nil {
		return nil, err
	}
	root := maxDegreeVertex(m, edges)

	t := &Table{
		ID:     "codec",
		Title:  "Storage codec sweep (fixed vs delta, ± degree reorder, HDD sim)",
		Header: []string{"codec", "reorder", "stored B/edge", "exec (s)", "speedup", "dev read (MB)", "dev written (MB)", "bytes vs fixed", "visited"},
		PaperNote: "beyond the paper: varint delta blocks over the paper's raw binary edge lists, each block " +
			"in the smaller of two layouts (zig-zag pairs, or runs that store a shared source once); " +
			"degree reordering clusters hub edges so destination gaps collapse to one byte, " +
			"compounding with trimming (smaller stay rewrites)",
	}

	variants := []struct {
		codec   graph.Codec
		reorder bool
	}{
		{graph.CodecFixed, false},
		{graph.CodecDelta, false},
		{graph.CodecDelta, true},
	}
	var baseExec float64
	var baseBytes int64
	byteFrac := map[string]float64{}
	for _, v := range variants {
		cfg.logf("  rmat%d/ef8: fastbfs codec=%s reorder=%v", cfg.Scale.TuneScale, v.codec, v.reorder)
		vol := storage.NewMem()
		if err := graph.StoreGraph(vol, m, edges, graph.StoreOptions{
			Codec: v.codec, Reverse: true, ReorderByDegree: v.reorder,
		}); err != nil {
			return nil, err
		}
		sm, err := graph.LoadMeta(vol, m.Name)
		if err != nil {
			return nil, err
		}
		stored := sm.DataBytes()
		if sm.EdgeCodec() == graph.CodecDelta {
			stored = sm.StoredBytes
		}

		ds := Dataset{PaperName: "rmat/ef8", Meta: sm, Root: root, Budget: scaledBudget(sm, cfg.Scale) / 32}
		res, err := runFastBFS(vol, sm.Name, core.Options{Base: baseOpts(ds, hddSim(cfg.Scale))})
		if err != nil {
			return nil, fmt.Errorf("fastbfs codec=%s reorder=%v: %w", v.codec, v.reorder, err)
		}
		mt := res.Metrics
		if v.codec == graph.CodecFixed && !v.reorder {
			baseExec, baseBytes = mt.ExecTime, mt.TotalBytes()
		}
		frac := float64(mt.TotalBytes()) / float64(baseBytes)
		byteFrac[fmt.Sprintf("%s/%v", v.codec, v.reorder)] = frac
		t.AddRow(
			string(v.codec),
			fmt.Sprintf("%v", v.reorder),
			fmt.Sprintf("%.2f", float64(stored)/float64(sm.Edges)),
			secs(mt.ExecTime),
			ratio(baseExec, mt.ExecTime),
			mb(mt.BytesRead),
			mb(mt.BytesWritten),
			fmt.Sprintf("%.1f%%", 100*frac),
			fmt.Sprintf("%d", res.Visited),
		)
	}

	if cfg.Scale.TuneScale >= 12 {
		if f := byteFrac["delta/false"]; f >= 1 {
			return nil, fmt.Errorf("delta moved %.1f%% of fixed's device bytes — not strictly fewer", 100*f)
		}
		if f := byteFrac["delta/true"]; f > 0.80 {
			return nil, fmt.Errorf("delta+reorder moved %.1f%% of fixed's device bytes, acceptance needs <= 80%%", 100*f)
		}
		t.AddNote("acceptance: delta moved %.1f%%, delta+reorder %.1f%% of fixed's device bytes (>= 20%% reduction)",
			100*byteFrac["delta/false"], 100*byteFrac["delta/true"])
	}
	t.AddNote("decode/encode cost is charged through the sim's MemBandwidth model; device time runs on compressed bytes")
	t.AddNote("BFS levels and parents are byte-identical across codecs per reorder setting (TestEnginesAgreeAcrossCodecs)")
	return t, nil
}
