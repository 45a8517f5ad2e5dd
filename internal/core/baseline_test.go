package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"fastbfs/internal/disksim"
	"fastbfs/internal/gen"
	"fastbfs/internal/graph"
	"fastbfs/internal/metrics"
	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

// baselineFile holds the simulated measurement record of X-Stream and
// the paper's FastBFS (every scatter trims) over a small fixed grid,
// captured at commit 0bc7183 — the last one where the two engines were
// separately written loops — and regenerated three times since: when the
// record became what the simulated devices moved (reads and rows kept),
// when delta blocks gained the runs layout (delta rows only; DESIGN.md
// §14), and when the delta rows' graph came to be stored delta instead of
// a fixed store run with delta working files (delta rows only).
// The single kernel must reproduce every number in it. Regenerate (only when a
// change is meant to move simulated numbers) with
//
//	FASTBFS_UPDATE_BASELINE=1 go test ./internal/core -run TestPinnedBaselineRuns
const baselineFile = "testdata/baseline_runs.jsonl"

// baselineRecord is one run of the grid: its name and the part of its
// metrics.Run the paper-shape tables are built from. The file holds one
// per line, in grid order.
type baselineRecord struct {
	Name                    string
	ExecTime, IOWait        float64
	BytesRead, BytesWritten int64
	Devices                 []metrics.DeviceStats
	Iterations              []metrics.Iteration
}

// TestPinnedBaselineRuns runs the grid — two graphs × {xstream, fastbfs}
// × update filter on/off × one/two disks × stored fixed/delta ×
// 1/4 scatter workers, all top-down — and compares each run's simulated
// time, bytes, device operations and per-iteration rows with the record.
func TestPinnedBaselineRuns(t *testing.T) {
	// The record is of fault-free runs with FastBFS's defaults.
	t.Setenv("FASTBFS_FAULTS", "")

	graphs := []struct {
		scale, edgeFactor int
		budget            uint64
		bufSize           int // 0 = the 1 MiB default
	}{
		{10, 8, 32 << 10, 0},
		{12, 16, 16 << 10, 4 << 10},
	}
	var got []baselineRecord
	for _, g := range graphs {
		m, edges, err := gen.RMAT(g.scale, g.edgeFactor, gen.Graph500(), 31)
		if err != nil {
			t.Fatal(err)
		}
		vols := map[graph.Codec]*storage.Mem{}
		for _, codec := range []graph.Codec{graph.CodecFixed, graph.CodecDelta} {
			vols[codec] = storage.NewMem()
			if err := graph.StoreGraph(vols[codec], m, edges, graph.StoreOptions{Codec: codec, Reverse: true}); err != nil {
				t.Fatal(err)
			}
		}
		root := maxDegreeVertex(m, edges)
		for _, engine := range []string{xstream.EngineName, EngineName} {
			for _, noFilter := range []bool{false, true} {
				for _, disks := range []int{1, 2} {
					for _, codec := range []graph.Codec{graph.CodecFixed, graph.CodecDelta} {
						for _, workers := range []int{1, 4} {
							sim := xstream.ScaledSim(512)
							if disks == 2 {
								sim.AuxDisk = disksim.HDDScaled("hdd1", 512)
							}
							base := xstream.Options{
								Root: root, MemoryBudget: g.budget, StreamBufSize: g.bufSize,
								ScatterWorkers: workers, Sim: sim,
								Direction:           xstream.DirectionTopDown,
								DisableUpdateFilter: noFilter,
							}
							var res *Result
							vol := vols[codec]
							if engine == EngineName {
								res, err = Run(vol, m.Name, Options{Base: base, TrimStartIteration: TrimEveryIteration})
							} else {
								res, err = xstream.Run(vol, m.Name, base)
							}
							name := fmt.Sprintf("%s/%s/nofilter=%v/disks=%d/%s/workers=%d", m.Name, engine, noFilter, disks, codec, workers)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							r := res.Metrics
							got = append(got, baselineRecord{name, r.ExecTime, r.IOWait, r.BytesRead, r.BytesWritten, r.Devices, r.Iterations})
						}
					}
				}
			}
		}
	}

	if os.Getenv("FASTBFS_UPDATE_BASELINE") != "" {
		var out bytes.Buffer
		enc := json.NewEncoder(&out)
		for _, g := range got {
			if err := enc.Encode(g); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(baselineFile, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d records to %s", len(got), baselineFile)
		return
	}
	f, err := os.Open(baselineFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	for _, g := range got {
		var want baselineRecord
		if err := dec.Decode(&want); err != nil {
			t.Fatalf("the record ends before %s: %v", g.Name, err)
		}
		if !reflect.DeepEqual(g, want) {
			t.Errorf("%s moved:\n got  %+v\n want %+v", g.Name, g, want)
		}
	}
	if dec.More() {
		t.Error("the record holds more runs than the grid")
	}
}
