// Command algos runs the extension algorithms (the paper's §VI future
// work) over a stored graph on the out-of-core substrate: weakly
// connected components, PageRank, multi-source BFS, weighted
// single-source shortest paths and diameter estimation.
//
// Usage:
//
//	algos -dir DATA -graph g -algo wcc
//	algos -dir DATA -graph g -algo pagerank -iters 20 -top 10
//	algos -dir DATA -graph g -algo msbfs -roots 1,2,3
//	algos -dir DATA -graph g_w -algo sssp -root 1 -top 10
//	algos -dir DATA -graph g -algo diameter -samples 8
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"fastbfs/internal/algo"
	"fastbfs/internal/core"
	"fastbfs/internal/errs"
	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

func main() {
	dir := flag.String("dir", ".", "directory holding the stored graph")
	name := flag.String("graph", "", "dataset name (required)")
	algoName := flag.String("algo", "", "algorithm: wcc, pagerank, msbfs, sssp or diameter (required)")
	root := flag.Uint64("root", 0, "root vertex (sssp)")
	roots := flag.String("roots", "0", "comma-separated roots (msbfs)")
	iters := flag.Int("iters", 15, "iterations (pagerank)")
	top := flag.Int("top", 5, "rows to print for ranked output")
	samples := flag.Int("samples", 8, "BFS sweeps (diameter)")
	mem := flag.Uint64("mem", 1<<30, "working memory budget in bytes")
	seed := flag.Int64("seed", 1, "sampling seed (diameter)")
	flag.Parse()

	if *name == "" || *algoName == "" {
		fmt.Fprintln(os.Stderr, "algos: -graph and -algo are required")
		os.Exit(2)
	}
	vol, err := storage.NewOS(*dir)
	if err != nil {
		fail(err)
	}
	opts := xstream.Options{MemoryBudget: *mem}

	switch *algoName {
	case "wcc":
		res, err := algo.Run(vol, *name, algo.WCC{}, opts)
		if err != nil {
			fail(err)
		}
		labels := algo.WCC{}.Labels(res.Values)
		sizes := map[uint32]int{}
		for _, l := range labels {
			sizes[l]++
		}
		largest := 0
		for _, n := range sizes {
			if n > largest {
				largest = n
			}
		}
		fmt.Printf("%d components over %d vertices; largest has %d (%.1f%%)\n",
			len(sizes), len(labels), largest, 100*float64(largest)/float64(len(labels)))
		fmt.Println(res.Metrics.String())

	case "pagerank":
		m, edges, err := xstream.LoadEdges(vol, *name)
		if err != nil {
			fail(err)
		}
		prog := algo.NewPageRank(graph.Degrees(m.Vertices, edges), *iters)
		res, err := algo.Run(vol, *name, prog, opts)
		if err != nil {
			fail(err)
		}
		ranks := prog.Ranks(res.Values)
		order := make([]int, len(ranks))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(i, j int) bool { return ranks[order[i]] > ranks[order[j]] })
		fmt.Printf("top %d of %d vertices by PageRank (%d iterations):\n", *top, len(ranks), *iters)
		for i := 0; i < *top && i < len(order); i++ {
			fmt.Printf("  %8d  %.6f\n", order[i], ranks[order[i]])
		}
		fmt.Println(res.Metrics.String())

	case "msbfs":
		var rs []graph.VertexID
		for _, part := range strings.Split(*roots, ",") {
			v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 32)
			if err != nil {
				fail(fmt.Errorf("bad root %q: %w: %w", part, errs.ErrBadOptions, err))
			}
			rs = append(rs, graph.VertexID(v))
		}
		prog := algo.NewMultiSourceBFS(rs)
		res, err := algo.Run(vol, *name, prog, opts)
		if err != nil {
			fail(err)
		}
		levels := prog.Levels(res.Values)
		reached, maxHop := 0, uint32(0)
		for _, l := range levels {
			if l != algo.NoLevel {
				reached++
				if l > maxHop {
					maxHop = l
				}
			}
		}
		fmt.Printf("reached %d of %d vertices from %d roots; max hop distance %d\n",
			reached, len(levels), len(rs), maxHop)
		fmt.Println(res.Metrics.String())

	case "sssp":
		prog := algo.NewSSSP(graph.VertexID(*root))
		res, err := algo.Run(vol, *name, prog, opts)
		if err != nil {
			fail(err)
		}
		dist := prog.Distances(res.Values)
		reached := 0
		far := float32(0)
		for _, d := range dist {
			if !math.IsInf(float64(d), 1) {
				reached++
				if d > far {
					far = d
				}
			}
		}
		fmt.Printf("shortest paths from %d: %d of %d vertices reachable, farthest at distance %.4f\n",
			*root, reached, len(dist), far)
		fmt.Println(res.Metrics.String())

	case "diameter":
		est, err := algo.EstimateDiameter(vol, *name, *samples, *seed, core.Options{Base: opts})
		if err != nil {
			fail(err)
		}
		for _, s := range est.PerSample {
			fmt.Printf("  root %8d: eccentricity >= %d (reached %d)\n", s.Root, s.Depth, s.Visited)
		}
		fmt.Printf("diameter lower bound: %d hops (%d sweeps)\n", est.LowerBound, est.Samples)

	default:
		fail(fmt.Errorf("unknown algorithm %q: %w", *algoName, errs.ErrBadOptions))
	}
}

// fail reports err and exits with its errs.ExitCode.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "algos:", err)
	os.Exit(errs.ExitCode(err))
}
