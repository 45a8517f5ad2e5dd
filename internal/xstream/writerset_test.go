package xstream

import (
	"context"
	"errors"
	"fmt"
	"slices"
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

// createLog records the names of the files created on its volume.
type createLog struct {
	storage.Volume
	names []string
}

func (v *createLog) Create(name string) (storage.Writer, error) {
	v.names = append(v.names, name)
	return v.Volume.Create(name)
}

// TestReverseStayFaultDegradesLaterPass: a permanent write fault on the
// reverse stay a later bottom-up pass writes (<prefix>_rstay2_<p>, the
// pass after the fused one) degrades that partition to untrimmed rescans
// of its current input: one partition disabled, the same tree as the
// fault-free run, and every pooled buffer back. The stay buffer holds the
// partition's whole stay, so the fault lands on the write its Close
// flushes; the graph is stored fixed and delta.
func TestReverseStayFaultDegradesLaterPass(t *testing.T) {
	const parts = 4
	pol := Policy{Trim: true, SelectiveScheduling: true, StayBufSize: 1 << 20, StayBufCount: 8, GracePeriod: 0.05}
	for _, codec := range []graph.Codec{graph.CodecFixed, graph.CodecDelta} {
		vol, m, edges := rmatStored(t, graph.StoreOptions{Codec: codec, Reverse: true})
		o := Options{Root: maxDegreeVertex(m, edges), MemoryBudget: 4096, Partitions: parts,
			StreamBufSize: 512, Direction: DirectionBottomUp, FilePrefix: "t", Sim: DefaultSim()}
		log := &createLog{Volume: vol}
		want, err := RunPolicy(context.Background(), log, m.Name, "t", o, pol)
		if err != nil {
			t.Fatal(err)
		}
		target := ""
		for _, f := range log.names {
			if strings.HasPrefix(f, "t_rstay2_") {
				target = f
				break
			}
		}
		if target == "" {
			t.Fatalf("%s: no bottom-up pass after the fused one wrote a reverse stay: the test is vacuous", codec)
		}
		audit := stream.AuditPools()
		faulty := storage.NewFaulty(vol, storage.FaultSpec{PWriteP: 1, Match: target})
		got, err := RunPolicy(context.Background(), faulty, m.Name, "t", o, pol)
		audit.Stop()
		if err != nil {
			t.Fatalf("%s: fault on %s: %v", codec, target, err)
		}
		if n := got.Metrics.StayDisabledParts; n != 1 {
			t.Errorf("%s: fault on %s: %d partitions disabled, want 1", codec, target, n)
		}
		if !slices.Equal(got.Levels, want.Levels) || !slices.Equal(got.Parents, want.Parents) {
			t.Errorf("%s: fault on %s: the tree differs from the fault-free run's", codec, target)
		}
		if n := audit.Outstanding(); n != 0 {
			t.Errorf("%s: fault on %s: %d pooled buffers outstanding", codec, target, n)
		}
	}
}

// TestFusedReverseStayKeepsNoTailOfAWonTarget: the fused first bottom-up
// pass claims a chunk's winners before it writes the chunk's records, so
// a target that one of its tails wins keeps no tail in the reverse stay,
// whichever tails come before the winning one. Here target 6 has head 2
// and tails 3 and 5; only 5 is in the frontier ({5}, level 1 from root
// 0), so 6 wins 5 at the fused pass and its other in-edges are dead. The
// stay holds its head, which the transposed graph's index hands the pass
// before any tail is read, and no tail: not 3, which precedes the winner.
// Fixed and delta stores, 1 and 4 workers.
func TestFusedReverseStayKeepsNoTailOfAWonTarget(t *testing.T) {
	edges := []graph.Edge{{Src: 0, Dst: 5}, {Src: 2, Dst: 6}, {Src: 3, Dst: 6}, {Src: 5, Dst: 6},
		{Src: 6, Dst: 7}, {Src: 1, Dst: 7}, {Src: 4, Dst: 2}}
	pol := Policy{Trim: true, SelectiveScheduling: true, StayBufSize: 4096, StayBufCount: 8, GracePeriod: 1e9}
	for _, codec := range []graph.Codec{graph.CodecFixed, graph.CodecDelta} {
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("%s/workers=%d", codec, workers)
			vol := storage.NewMem()
			m := graph.Meta{Name: "claim", Vertices: 8}
			if err := graph.StoreGraph(vol, m, slices.Clone(edges), graph.StoreOptions{Codec: codec, Reverse: true}); err != nil {
				t.Fatal(err)
			}
			o := Options{Root: 0, MemoryBudget: 64, Partitions: 2, StreamBufSize: 4096, Direction: DirectionBottomUp,
				ScatterWorkers: workers, MaxIterations: 2, KeepFiles: true, FilePrefix: "t", Sim: DefaultSim()}
			res, err := RunPolicy(context.Background(), vol, m.Name, "t", o, pol)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if res.Metrics.BottomUpIterations != 1 || res.Levels[6] != 2 || res.Parents[6] != 5 {
				t.Fatalf("%s: %d bottom-up iterations, vertex 6 at level %d with parent %d; want the fused pass to give it 5",
					name, res.Metrics.BottomUpIterations, res.Levels[6], res.Parents[6])
			}
			var kept []graph.Edge
			for _, f := range vol.List() {
				if !strings.HasPrefix(f, "t_rstay1_") {
					continue
				}
				sc, err := stream.NewEdgeScanner(vol, f, stream.Timing{}, 4096)
				if err != nil {
					t.Fatal(err)
				}
				buf := make([]graph.Edge, 64)
				for {
					n, err := sc.NextChunk(buf)
					if err != nil {
						t.Fatal(err)
					}
					if n == 0 {
						break
					}
					for _, r := range buf[:n] {
						if r.Src == 6 {
							kept = append(kept, r)
						}
					}
				}
				sc.Close()
			}
			if want := []graph.Edge{{Src: 6, Dst: 2}}; !slices.Equal(kept, want) {
				t.Errorf("%s: the fused pass's reverse stay holds %v of target 6, want only its head %v", name, kept, want)
			}
		}
	}
}
