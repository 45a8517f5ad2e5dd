package xstream

import (
	"encoding/json"
	"errors"
	"runtime"
	"testing"

	"fastbfs/internal/errs"
	"fastbfs/internal/graph"
)

// FuzzManifest feeds arbitrary bytes to the manifest parser. It returns a
// manifest that passes its own checks — and so names logs by a bounded
// partition count and a non-negative iteration — or errs.ErrCorrupted. It
// never panics, and never sizes a buffer by a length the input does not
// hold: a frame header claiming 64 MiB in a 20-byte file allocates nothing
// of the kind.
func FuzzManifest(f *testing.F) {
	good, err := json.Marshal(&checkpointManifest{Version: manifestVersion, Engine: "fastbfs", Graph: "rmat8",
		FilePrefix: "fastbfs", Parts: 4, Iteration: 2, Dir: dirHistory{Mode: DirectionBottomUp, SwitchIteration: 1}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(graph.FrameAll(good))
	f.Add(graph.FrameAll([]byte(`{"version":1,"iteration":0,"parts":[{}]}`)))
	f.Add([]byte("FBC1\x00\x00\x00\x04\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		man, err := parseManifest(raw)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16*uint64(len(raw))+1<<16 {
			t.Fatalf("parsing %d bytes allocated %d", len(raw), grew)
		}
		if err != nil {
			if !errors.Is(err, errs.ErrCorrupted) {
				t.Fatalf("rejected with %v, want ErrCorrupted", err)
			}
			return
		}
		if err := man.check(); err != nil {
			t.Fatalf("accepted a manifest that fails its own checks: %v", err)
		}
	})
}
