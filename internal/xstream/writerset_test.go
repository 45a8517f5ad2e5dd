package xstream

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"fastbfs/internal/errs"
	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
	"fastbfs/internal/stream"
)

// TestSplitFaultLeavesNothing drives stream.WriterSet's all-or-nothing
// contract through the kernel's three partition splits — Prepare's forward
// split, the fused reverse split of the first bottom-up pass, and the
// split pass of a run that trims by the counts — with a permanent write
// fault on partition k's file. The small stream buffer fails an Append's
// flush, the large one the Close's. The run keeps its files (Cleanup
// removes nothing), so whatever file of the set is on the volume
// afterwards, the set itself left there; and every buffer the run's pool
// handed out must be back, which an open writer's would not be. The graph
// is stored fixed and delta, so the sets are written in both codecs.
func TestSplitFaultLeavesNothing(t *testing.T) {
	const parts = 4
	counts := Policy{Trim: true, SelectiveScheduling: true, StayBufSize: 512, StayBufCount: 8, GracePeriod: 0.05}
	for _, codec := range []graph.Codec{graph.CodecFixed, graph.CodecDelta} {
		vol, m, edges := rmatStored(t, graph.StoreOptions{Codec: codec, Reverse: true})
		for _, split := range []struct {
			file string
			pol  Policy
			dir  Direction
		}{{"_edge_", Policy{}, DirectionBottomUp}, {"_rstay1_", Policy{}, DirectionBottomUp}, {"_edge_", counts, DirectionTopDown}} {
			for _, bufSize := range []int{512, 1 << 20} {
				for k := 0; k < parts; k++ {
					name := fmt.Sprintf("%s%d/%s/buf=%d/trim=%v", split.file, k, codec, bufSize, split.pol.Trim)
					audit := stream.AuditPools()
					o := Options{Root: maxDegreeVertex(m, edges), MemoryBudget: 4096, Partitions: parts,
						StreamBufSize: bufSize, Direction: split.dir,
						KeepFiles: true, FilePrefix: "t", Sim: DefaultSim()}
					faulty := storage.NewFaulty(vol, storage.FaultSpec{PWriteP: 1, Match: fmt.Sprintf("t%s%d", split.file, k)})
					_, err := RunPolicy(context.Background(), faulty, m.Name, "t", o, split.pol)
					audit.Stop()
					var fe *storage.FaultError
					if !errors.Is(err, errs.ErrIOFailed) || !errors.As(err, &fe) || fe.Transient {
						t.Fatalf("%s: err = %v, want the permanent write fault as ErrIOFailed", name, err)
					}
					for _, f := range vol.List() {
						if strings.Contains(f, split.file) {
							t.Errorf("%s: the failed split left %s on the volume", name, f)
						}
						if strings.HasPrefix(f, "t_") {
							vol.Remove(f)
						}
					}
					if n := audit.Outstanding(); n != 0 {
						t.Errorf("%s: %d pooled buffers outstanding after the failed run", name, n)
					}
				}
			}
		}
	}
}
