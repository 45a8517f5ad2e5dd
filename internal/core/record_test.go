package core

import (
	"fmt"
	"slices"
	"testing"

	"fastbfs/internal/disksim"
	"fastbfs/internal/graph"
	"fastbfs/internal/graphchi"
	"fastbfs/internal/metrics"
	"fastbfs/internal/xstream"
)

// TestRecordIsWhatTheDevicesMoved: under a simulation clock a run's record
// is what its simulated devices moved (DESIGN.md §2), for every engine ×
// one or two disks × fixed or delta+reorder store × top-down or auto. On
// each cell it checks that the record's bytes are the sum of its Devices
// entries; that read-ahead (PrefetchBuffers 2) moves the same bytes as
// blocking reads (-1); and that the two runs, sharing one SimConfig, each
// report their own bytes, which add up to the devices' totals.
func TestRecordIsWhatTheDevicesMoved(t *testing.T) {
	t.Setenv("FASTBFS_FAULTS", "")
	stores := []struct {
		name string
		opts graph.StoreOptions
	}{
		{"fixed", graph.StoreOptions{Reverse: true}},
		{"delta+reorder", graph.StoreOptions{Codec: graph.CodecDelta, ReorderByDegree: true, Reverse: true}},
	}
	for _, st := range stores {
		vol, m, root := storedRMAT(t, 12, 16, st.opts)
		engines := []struct {
			name string
			run  func(o xstream.Options) (*xstream.Result, error)
		}{
			{EngineName, func(o xstream.Options) (*xstream.Result, error) { return Run(vol, m.Name, Options{Base: o}) }},
			{xstream.EngineName, func(o xstream.Options) (*xstream.Result, error) { return xstream.Run(vol, m.Name, o) }},
			{graphchi.EngineName, func(o xstream.Options) (*xstream.Result, error) { return graphchi.Run(vol, m.Name, o) }},
		}
		for _, eng := range engines {
			for _, disks := range []int{1, 2} {
				for _, dir := range []xstream.Direction{xstream.DirectionTopDown, xstream.DirectionAuto} {
					cell := fmt.Sprintf("%s/%s/disks=%d/%s", eng.name, st.name, disks, dir)
					sim := xstream.ScaledSim(512)
					if disks == 2 {
						sim.AuxDisk = disksim.HDDScaled("hdd1", 512)
					}
					run := func(sim *xstream.SimConfig, prefetch int) *xstream.Result {
						res, err := eng.run(xstream.Options{Root: root, MemoryBudget: 16 << 10, Partitions: 4, StreamBufSize: 4 << 10,
							PrefetchBuffers: prefetch, Sim: sim, Direction: dir})
						if err != nil {
							t.Fatalf("%s: %v", cell, err)
						}
						return res
					}
					ahead := run(sim, 2)
					if len(ahead.Metrics.Iterations) < 3 || ahead.Metrics.BytesWritten == 0 {
						t.Fatalf("%s: %d iterations, %d bytes written: not a streaming run", cell, len(ahead.Metrics.Iterations), ahead.Metrics.BytesWritten)
					}
					checkRecordSumsDevices(t, cell, ahead.Metrics)

					// The second run shares the first one's devices.
					blocking := run(sim, -1)
					checkRecordSumsDevices(t, cell+" without read-ahead", blocking.Metrics)
					if ahead.Metrics.BytesRead != blocking.Metrics.BytesRead {
						t.Errorf("%s: %d bytes read with read-ahead, %d without", cell, ahead.Metrics.BytesRead, blocking.Metrics.BytesRead)
					}
					if !slices.Equal(ahead.Levels, blocking.Levels) {
						t.Errorf("%s: levels differ with and without read-ahead", cell)
					}
					var read, written int64
					for _, d := range []*disksim.Device{sim.MainDisk, sim.AuxDisk} {
						if d != nil {
							read, written = read+d.BytesRead(), written+d.BytesWritten()
						}
					}
					if ahead.Metrics.BytesRead+blocking.Metrics.BytesRead != read || ahead.Metrics.BytesWritten+blocking.Metrics.BytesWritten != written {
						t.Errorf("%s: two runs on one SimConfig report %d+%d read and %d+%d written; its devices moved %d and %d",
							cell, ahead.Metrics.BytesRead, blocking.Metrics.BytesRead, ahead.Metrics.BytesWritten, blocking.Metrics.BytesWritten, read, written)
					}
				}
			}
		}
	}
}

// checkRecordSumsDevices requires a simulated run's record bytes to be the
// sum of its Devices entries.
func checkRecordSumsDevices(t *testing.T, cell string, r metrics.Run) {
	t.Helper()
	var read, written int64
	for _, d := range r.Devices {
		read, written = read+d.BytesRead, written+d.BytesWritten
	}
	if r.BytesRead != read || r.BytesWritten != written {
		t.Errorf("%s: record %d read / %d written, devices %d / %d", cell, r.BytesRead, r.BytesWritten, read, written)
	}
}
