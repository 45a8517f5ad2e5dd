// Command graphinfo inspects a stored graph: metadata, degree
// statistics, and (with -root) the BFS convergence profile that decides
// whether trimming will pay off (the paper's Fig. 1).
//
// Usage:
//
//	graphinfo -dir DATA -graph rmat20 [-root 1]
package main

import (
	"flag"
	"fmt"
	"os"

	"fastbfs/internal/bfs"
	"fastbfs/internal/errs"
	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

func main() {
	dir := flag.String("dir", ".", "directory holding the stored graph")
	name := flag.String("graph", "", "dataset name (required)")
	root := flag.Int64("root", -1, "compute the BFS convergence profile from this root")
	flag.Parse()

	if *name == "" {
		fmt.Fprintln(os.Stderr, "graphinfo: -graph is required")
		os.Exit(2)
	}
	vol, err := storage.NewOS(*dir)
	if err != nil {
		fail(err)
	}
	m, edges, err := xstream.LoadEdges(vol, *name)
	if err != nil {
		fail(err)
	}
	stored := m.DataBytes()
	if m.EdgeCodec() == graph.CodecDelta {
		stored = m.StoredBytes
	}
	bpe := float64(stored)
	if m.Edges > 0 {
		bpe /= float64(m.Edges)
	}
	fmt.Printf("name:       %s\n", m.Name)
	fmt.Printf("vertices:   %d\n", m.Vertices)
	fmt.Printf("edges:      %d\n", m.Edges)
	fmt.Printf("data size:  %d bytes\n", m.DataBytes())
	fmt.Printf("codec:      %s (%d stored bytes, %.2f bytes/edge)\n", m.EdgeCodec(), stored, bpe)
	fmt.Printf("reordered:  %v (degree permutation: %v)\n", m.Reordered, graph.HasPerm(vol, *name))
	fmt.Printf("weighted:   %v\n", m.Weighted)
	fmt.Printf("undirected: %v\n", m.Undirected)

	stats := graph.SummarizeDegrees(graph.Degrees(m.Vertices, edges))
	fmt.Printf("out-degree: min=%d p50=%d p90=%d p99=%d max=%d mean=%.2f isolated=%d\n",
		stats.Min, stats.P50, stats.P90, stats.P99, stats.Max, stats.Mean, stats.Isolated)

	if *root >= 0 {
		prof, err := bfs.Convergence(m, edges, graph.VertexID(*root))
		if err != nil {
			fail(err)
		}
		fmt.Printf("\nBFS convergence from root %d:\n", *root)
		fmt.Println("level   frontier  useful-edges   live-edges  live%")
		for _, s := range prof {
			fmt.Printf("%5d %10d %13d %12d %5.1f%%\n",
				s.Level, s.Frontier, s.UsefulEdges, s.LiveEdges,
				100*float64(s.LiveEdges)/float64(m.Edges))
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "graphinfo:", err)
	os.Exit(errs.ExitCode(err))
}
