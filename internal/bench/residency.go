package bench

import (
	"fmt"

	"fastbfs/internal/core"
	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
)

// Residency sweeps the resident-partition cache budget on the simulated
// HDD: 0 (off — today's all-device behavior), one fair share (room for a
// single partition), half the edge set, and unbounded. Inputs shrink
// monotonically under trimming, so a larger budget promotes partitions
// earlier and more of the run's tail is served from RAM; execution time
// and device traffic must fall monotonically in budget, and the BFS
// result must not move at all.
func Residency(cfg Config) (*Table, error) {
	vol := storage.NewMem()
	ds, err := BuildTuneDataset(vol, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	edgeBytes := int64(ds.Meta.Edges) * graph.EdgeBytes

	budgets := []struct {
		label  string
		budget int64
	}{
		{"off", core.ResidencyOff},
		{"half graph", edgeBytes / 2},
		{"full graph", edgeBytes}, // fair share = budget/parts: an average partition fits untrimmed
		{"unbounded", core.ResidencyUnbounded},
	}

	t := &Table{
		ID:     "residency",
		Title:  "Resident-partition cache budget sweep (FastBFS, HDD sim)",
		Header: []string{"budget", "exec (s)", "speedup", "dev read (MB)", "dev written (MB)", "resident", "RAM scans", "saved (MB)", "visited"},
		PaperNote: "beyond the paper: once trimming shrinks a partition below its fair share of the " +
			"budget it is promoted to RAM and the run's tail stops paying the device (Fig. 7's " +
			"collapsed late iterations become memory-bandwidth bound)",
	}

	var baseExec float64
	var baseBytes int64
	var baseVisited uint64
	for i, b := range budgets {
		cfg.logf("  %s: fastbfs residency=%s", ds.PaperName, b.label)
		o := core.Options{Base: baseOpts(ds, hddSim(cfg.Scale)), ResidencyBudget: b.budget}
		res, err := runFastBFS(vol, ds.Meta.Name, o)
		if err != nil {
			return nil, fmt.Errorf("fastbfs residency=%s on %s: %w", b.label, ds.Meta.Name, err)
		}
		m := res.Metrics
		if i == 0 {
			baseExec = m.ExecTime
			baseBytes = m.TotalBytes()
			baseVisited = res.Visited
		} else if res.Visited != baseVisited {
			return nil, fmt.Errorf("residency=%s changed the result: visited %d, want %d", b.label, res.Visited, baseVisited)
		}
		t.AddRow(
			b.label,
			secs(m.ExecTime),
			ratio(baseExec, m.ExecTime),
			mb(m.BytesRead),
			mb(m.BytesWritten),
			fmt.Sprintf("%d", m.ResidentParts),
			fmt.Sprintf("%d", m.ResidentScans),
			mb(m.ResidentBytesSaved),
			fmt.Sprintf("%d", res.Visited),
		)
		if i > 0 && b.budget == core.ResidencyUnbounded {
			if m.ExecTime >= baseExec {
				return nil, fmt.Errorf("residency=unbounded did not beat budget 0: exec %.4fs vs %.4fs", m.ExecTime, baseExec)
			}
			if m.TotalBytes() >= baseBytes {
				return nil, fmt.Errorf("residency=unbounded did not reduce device bytes: %d vs %d", m.TotalBytes(), baseBytes)
			}
			if m.Cancellations != 0 {
				return nil, fmt.Errorf("residency=unbounded still cancelled %d stay writes", m.Cancellations)
			}
		}
	}
	t.AddNote("BFS output is identical at every budget; only where the bytes live changes (DESIGN.md §8)")
	t.AddNote("'saved' counts edge reads served from RAM plus stay-file writes never issued")
	return t, nil
}
