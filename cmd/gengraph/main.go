// Command gengraph generates evaluation graphs — Graph500 R-MAT,
// twitter/friendster stand-ins, and test fixtures — and stores them as
// binary edge lists with FastBFS configuration files in a directory.
//
// Usage:
//
//	gengraph -dir DATA -type rmat -scale 20 -edgefactor 16 -seed 1
//	gengraph -dir DATA -type twitter -scale 18
//	gengraph -dir DATA -type friendster -scale 18
//	gengraph -dir DATA -type path -n 100000
package main

import (
	"flag"
	"fmt"
	"os"

	"fastbfs/internal/gen"
	"fastbfs/internal/graph"
	"fastbfs/internal/storage"
)

func main() {
	dir := flag.String("dir", ".", "directory to store the graph in")
	typ := flag.String("type", "rmat", "graph type: rmat, twitter, friendster, uniform, path, star, cycle, btree")
	scale := flag.Int("scale", 16, "log2 of vertex count (rmat, twitter, friendster)")
	edgeFactor := flag.Int("edgefactor", 16, "edges per vertex (rmat, uniform)")
	n := flag.Uint64("n", 1024, "vertex count (uniform, path, star, cycle, btree)")
	seed := flag.Int64("seed", 1, "generator seed")
	name := flag.String("name", "", "override the dataset name")
	tendrils := flag.Int("tendrils", 0, "append N-vertex tendril chains (one per 512 vertices) to deepen BFS")
	codecName := flag.String("codec", "fixed", "edge-file codec: fixed or delta")
	reorder := flag.Bool("reorder", false, "relabel vertices by descending degree before storing")
	flag.Parse()

	codec, err := graph.ParseCodec(*codecName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gengraph:", err)
		os.Exit(2)
	}

	var (
		m     graph.Meta
		edges []graph.Edge
	)
	switch *typ {
	case "rmat":
		m, edges, err = gen.RMAT(*scale, *edgeFactor, gen.Graph500(), *seed)
	case "twitter":
		m, edges, err = gen.TwitterLike(*scale, *seed)
	case "friendster":
		m, edges, err = gen.FriendsterLike(*scale, *seed)
	case "uniform":
		m, edges, err = gen.Uniform(*n, *n*uint64(*edgeFactor), *seed)
	case "path":
		m, edges, err = gen.Path(*n)
	case "star":
		m, edges, err = gen.Star(*n)
	case "cycle":
		m, edges, err = gen.Cycle(*n)
	case "btree":
		m, edges, err = gen.BinaryTree(*n)
	default:
		err = fmt.Errorf("unknown graph type %q", *typ)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gengraph:", err)
		os.Exit(2)
	}
	if *tendrils > 0 {
		m, edges = gen.AddTendrils(m, edges, int(m.Vertices/512), *tendrils, m.Undirected, *seed+99)
	}
	if *name != "" {
		m.Name = *name
	}
	vol, err := storage.NewOS(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gengraph:", err)
		os.Exit(1)
	}
	opts := graph.StoreOptions{Codec: codec, Reverse: true, ReorderByDegree: *reorder}
	if err := graph.StoreGraph(vol, m, edges, opts); err != nil {
		fmt.Fprintln(os.Stderr, "gengraph:", err)
		os.Exit(1)
	}
	stored, err := graph.LoadMeta(vol, m.Name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gengraph:", err)
		os.Exit(1)
	}
	bytes := stored.DataBytes()
	if stored.EdgeCodec() == graph.CodecDelta {
		bytes = stored.StoredBytes
	}
	fmt.Printf("stored %s: %d vertices, %d edges, %d bytes, codec %s, reordered %v (%s, %s, %s)\n",
		stored.Name, stored.Vertices, stored.Edges, bytes, stored.EdgeCodec(), stored.Reordered,
		graph.EdgeFileName(m.Name), graph.IndexFileName(m.Name), graph.ConfFileName(m.Name))
}
