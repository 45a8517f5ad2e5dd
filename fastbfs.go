// Package fastbfs is the public API of this repository: a reproduction
// of "FastBFS: Fast Breadth-First Graph Search on a Single Server"
// (Cheng, Zhang, Shu, Hu, Zheng — IPDPS 2016) as a production-quality Go
// library.
//
// The package bundles
//
//   - the FastBFS engine itself (asynchronous graph trimming over an
//     edge-centric out-of-core scatter/gather loop),
//   - the two baselines the paper evaluates against — X-Stream and
//     GraphChi's parallel sliding windows — implemented from scratch,
//   - workload generators for the paper's datasets (Graph500 R-MAT and
//     synthetic twitter/friendster stand-ins),
//   - a storage layer with in-memory and real-file volumes, and an
//     analytic disk/time simulator reproducing the paper's testbed,
//   - extension algorithms on the same substrate (multi-source BFS,
//     weakly connected components, PageRank, diameter estimation).
//
// # Quick start
//
//	vol := fastbfs.NewMemVolume()
//	meta, edges, _ := fastbfs.GenerateRMAT(16, 16, 42)
//	_ = fastbfs.Store(vol, meta, edges)
//
//	opts := fastbfs.DefaultOptions()
//	opts.Base.Root = 1
//	res, _ := fastbfs.Run(context.Background(), fastbfs.EngineFastBFS, vol, meta.Name, opts)
//	fmt.Println(res.Visited, "vertices reached in", res.Metrics.ExecTime, "virtual seconds")
//
// # Contexts, engines and errors
//
// Every entry point has a context-first form (Run, BFSContext,
// SSSPContext, ...) whose ctx cancels the traversal at the next
// iteration or partition boundary; the context-free forms remain as
// thin wrappers over context.Background() for existing callers and new
// code should prefer the context-first ones — the wrappers stay for
// compatibility but get no new capabilities. The three BFS engines are
// selected by the Engine enum through Run; BFS, BFSXStream and
// BFSGraphChi are one-line conveniences over it. Failures are matchable
// with errors.Is against the exported sentinels (ErrGraphNotFound,
// ErrBadOptions, ErrCancelled, ErrBusy, ErrClosed, ErrCorrupted,
// ErrIOFailed).
//
// # Serving
//
// NewService turns a stored graph into a long-lived concurrent query
// service with per-query deadlines, admission control and a result
// cache; cmd/fastbfsd exposes it over HTTP. See DESIGN.md §9.
//
// See examples/ for complete programs and internal/bench for the
// harness that regenerates every table and figure of the paper.
package fastbfs

import (
	"context"

	"fastbfs/internal/algo"
	"fastbfs/internal/bfs"
	"fastbfs/internal/core"
	"fastbfs/internal/disksim"
	"fastbfs/internal/errs"
	"fastbfs/internal/gen"
	"fastbfs/internal/graph"
	"fastbfs/internal/metrics"
	"fastbfs/internal/serve"
	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

// Sentinel errors shared by every engine and the query service; match
// with errors.Is. An engine error may wrap several of them plus the
// context cause (a cancelled query matches both ErrCancelled and
// context.Canceled / context.DeadlineExceeded).
var (
	// ErrGraphNotFound: the named graph has no config or edge file on
	// the volume.
	ErrGraphNotFound = errs.ErrGraphNotFound
	// ErrBadOptions: the query or options are malformed (root out of
	// range, weighted graph handed to BFS, unknown engine...).
	ErrBadOptions = errs.ErrBadOptions
	// ErrCancelled: the run was abandoned because its context was
	// cancelled or its deadline passed.
	ErrCancelled = errs.ErrCancelled
	// ErrBusy: the query service's admission queue is full.
	ErrBusy = errs.ErrBusy
	// ErrClosed: the query service is shut down or draining.
	ErrClosed = errs.ErrClosed
	// ErrCorrupted: stored data failed a checksum or structural check
	// (torn frame, bad CRC, invalid checkpoint manifest).
	ErrCorrupted = errs.ErrCorrupted
	// ErrIOFailed: an I/O operation failed past the transient-retry
	// budget, or failed permanently.
	ErrIOFailed = errs.ErrIOFailed
	// ErrDeadlineHopeless: overload control shed the query at admission —
	// its deadline could not survive the predicted queue wait plus
	// execution time (HTTP 429 + Retry-After).
	ErrDeadlineHopeless = errs.ErrDeadlineHopeless
	// ErrInternal: the query was lost to a recovered panic, isolated to
	// exactly that query (HTTP 500).
	ErrInternal = errs.ErrInternal
	// ErrUnavailable: the service's circuit breaker is open and failing
	// fast while the volume backs off (HTTP 503 + Retry-After).
	ErrUnavailable = errs.ErrUnavailable
)

// Core graph types.
type (
	// VertexID identifies a vertex; ids are dense in [0, Vertices).
	VertexID = graph.VertexID
	// Edge is a directed edge.
	Edge = graph.Edge
	// Meta describes a stored graph.
	Meta = graph.Meta
	// Volume is the storage abstraction engines stream through.
	Volume = storage.Volume
	// Result is a BFS engine's output: levels, parents and metrics.
	Result = xstream.Result
	// Options configures the FastBFS engine.
	Options = core.Options
	// EngineOptions is the base option set shared by every engine.
	EngineOptions = xstream.Options
	// Sim selects simulated timing and carries device/cost models.
	Sim = xstream.SimConfig
	// Device is one simulated disk.
	Device = disksim.Device
	// RunMetrics is the measurement record of one engine execution.
	RunMetrics = metrics.Run
)

// NoVertex is the "no parent" sentinel.
const NoVertex = graph.NoVertex

// NoLevel marks a vertex not reached by the traversal.
const NoLevel = xstream.NoLevel

// NewMemVolume returns an in-memory volume (deterministic, used with
// simulated timing).
func NewMemVolume() *storage.Mem { return storage.NewMem() }

// NewOSVolume returns a volume backed by real files under dir (wall
// clock timing).
func NewOSVolume(dir string) (*storage.OS, error) { return storage.NewOS(dir) }

// Codec identifies a stored edge representation: CodecFixed is the raw
// fixed-width record format, CodecDelta the block-compressed varint
// delta format (see DESIGN.md §14).
type Codec = graph.Codec

// The available codecs.
const (
	CodecFixed = graph.CodecFixed
	CodecDelta = graph.CodecDelta
)

// ParseCodec maps "fixed" or "delta" to a Codec ("" defaults to fixed);
// unknown names fail with ErrBadOptions.
func ParseCodec(s string) (Codec, error) { return graph.ParseCodec(s) }

// StoreOptions configures StoreGraph: the edge codec, whether to write
// the reverse-edge file direction-optimized traversals need, and
// whether to relabel vertices by descending degree before storing.
type StoreOptions = graph.StoreOptions

// StoreGraph writes a graph (edge list, optional reverse-edge file,
// config) to a volume under explicit storage options. A reordered graph
// is stored under a degree-sorted relabeling with the permutation
// persisted alongside; every query API keeps speaking the caller's
// original vertex labels — roots, levels, parents and algorithm values
// are translated at the API boundary. ctx only gates the call's start
// (storing is one synchronous pass; there are no iteration boundaries
// to poll).
func StoreGraph(ctx context.Context, vol Volume, m Meta, edges []Edge, opts StoreOptions) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return graph.StoreGraph(vol, m, edges, opts)
}

// Store writes a graph (binary edge list + config file) to a volume —
// StoreGraph under the fixed codec with a reverse-edge file, kept as a
// compatibility wrapper; prefer StoreGraph in new code.
func Store(vol Volume, m Meta, edges []Edge) error { return graph.Store(vol, m, edges) }

// LoadMeta reads a stored graph's metadata.
func LoadMeta(vol Volume, name string) (Meta, error) { return graph.LoadMeta(vol, name) }

// GenerateRMAT generates a Graph500-specification R-MAT graph with
// 2^scale vertices and edgeFactor·2^scale edges.
func GenerateRMAT(scale, edgeFactor int, seed int64) (Meta, []Edge, error) {
	return gen.RMAT(scale, edgeFactor, gen.Graph500(), seed)
}

// GenerateTwitterLike generates a directed scale-free stand-in for the
// paper's twitter_rv dataset at the given scale.
func GenerateTwitterLike(scale int, seed int64) (Meta, []Edge, error) {
	return gen.TwitterLike(scale, seed)
}

// GenerateFriendsterLike generates an undirected (symmetrized)
// scale-free stand-in for the paper's friendster dataset.
func GenerateFriendsterLike(scale int, seed int64) (Meta, []Edge, error) {
	return gen.FriendsterLike(scale, seed)
}

// DefaultOptions returns FastBFS options with a simulated single HDD,
// the paper's 4-core CPU model, 4 threads and a 1 GiB memory budget.
func DefaultOptions() Options {
	return Options{Base: EngineOptions{Sim: xstream.DefaultSim()}}
}

// DefaultSim returns the single-HDD simulation configuration.
func DefaultSim() *Sim { return xstream.DefaultSim() }

// ScaledSim returns a single-HDD simulation with its positioning cost
// scaled down by factor, for datasets scaled down from the paper's
// multi-gigabyte graphs (see DESIGN.md §6).
func ScaledSim(factor float64) *Sim { return xstream.ScaledSim(factor) }

// HDD and SSD build simulated devices with the paper's testbed
// characteristics.
func HDD(name string) *Device { return disksim.HDD(name) }

// SSD returns a simulated SATA2-era SSD.
func SSD(name string) *Device { return disksim.SSD(name) }

// Engine selects a BFS engine for Run: the paper's FastBFS or one of
// the two baselines it is evaluated against.
type Engine = serve.Engine

// The available engines.
const (
	EngineFastBFS  = serve.EngineFastBFS
	EngineXStream  = serve.EngineXStream
	EngineGraphChi = serve.EngineGraphChi
)

// ParseEngine maps "fastbfs", "xstream" or "graphchi" to an Engine
// ("" defaults to fastbfs); unknown names fail with ErrBadOptions.
func ParseEngine(s string) (Engine, error) { return serve.ParseEngine(s) }

// Run executes a BFS on the chosen engine, cancellable through ctx:
// the engines poll it at iteration and partition boundaries (and in
// FastBFS's stay writer), so a cancelled run releases its buffers and
// working files promptly and returns an error matching ErrCancelled.
// The baselines read only opts.Base; the FastBFS-specific fields (trim
// policy, stay buffers, grace periods) apply to EngineFastBFS.
func Run(ctx context.Context, engine Engine, vol Volume, graphName string, opts Options) (*Result, error) {
	return serve.RunEngine(ctx, engine, vol, graphName, opts)
}

// BFSContext runs the FastBFS engine (the paper's contribution) over a
// stored graph, cancellable through ctx.
func BFSContext(ctx context.Context, vol Volume, graphName string, opts Options) (*Result, error) {
	return serve.RunEngine(ctx, EngineFastBFS, vol, graphName, opts)
}

// BFS is BFSContext without cancellation — a compatibility wrapper over
// context.Background(); prefer BFSContext or Run in new code.
func BFS(vol Volume, graphName string, opts Options) (*Result, error) {
	return BFSContext(context.Background(), vol, graphName, opts)
}

// BFSXStream runs the X-Stream baseline engine. Compatibility wrapper:
// prefer Run(ctx, EngineXStream, ...) in new code.
func BFSXStream(vol Volume, graphName string, opts EngineOptions) (*Result, error) {
	return serve.RunEngine(context.Background(), EngineXStream, vol, graphName, Options{Base: opts})
}

// BFSGraphChi runs the GraphChi (parallel sliding windows) baseline
// engine. Compatibility wrapper: prefer Run(ctx, EngineGraphChi, ...)
// in new code.
func BFSGraphChi(vol Volume, graphName string, opts EngineOptions) (*Result, error) {
	return serve.RunEngine(context.Background(), EngineGraphChi, vol, graphName, Options{Base: opts})
}

// ValidateBFS checks an engine result against the graph with
// Graph500-style parent-tree validation.
func ValidateBFS(m Meta, edges []Edge, root VertexID, res *Result) error {
	return bfs.Validate(m, edges, &bfs.Result{
		Root: root, Level: res.Levels, Parent: res.Parents, Visited: res.Visited,
	})
}

// LevelStats describes one BFS level of a convergence profile (Fig. 1).
type LevelStats = bfs.LevelStats

// Convergence computes the per-level frontier and live-edge profile of a
// BFS from root — the fraction of the graph still useful at each level,
// which is what makes trimming pay off.
func Convergence(m Meta, edges []Edge, root VertexID) ([]LevelStats, error) {
	return bfs.Convergence(m, edges, root)
}

// DiameterEstimate is the result of a sampled eccentricity sweep.
type DiameterEstimate = algo.DiameterEstimate

// EstimateDiameterContext lower-bounds a stored graph's diameter with
// repeated FastBFS sweeps from random roots, cancellable through ctx.
func EstimateDiameterContext(ctx context.Context, vol Volume, graphName string, samples int, seed int64, opts Options) (*DiameterEstimate, error) {
	return algo.EstimateDiameterContext(ctx, vol, graphName, samples, seed, opts)
}

// EstimateDiameter is EstimateDiameterContext without cancellation
// (compatibility wrapper; prefer the context form in new code).
func EstimateDiameter(vol Volume, graphName string, samples int, seed int64, opts Options) (*DiameterEstimate, error) {
	return EstimateDiameterContext(context.Background(), vol, graphName, samples, seed, opts)
}

// ConnectedComponentsContext runs weakly-connected-components label
// propagation over a stored (symmetrized) graph, returning a component
// label per vertex, cancellable through ctx.
func ConnectedComponentsContext(ctx context.Context, vol Volume, graphName string, opts EngineOptions) ([]uint32, error) {
	res, err := algo.RunContext(ctx, vol, graphName, algo.WCC{}, opts)
	if err != nil {
		return nil, err
	}
	return algo.WCC{}.Labels(res.Values), nil
}

// ConnectedComponents is ConnectedComponentsContext without cancellation
// (compatibility wrapper; prefer the context form in new code).
func ConnectedComponents(vol Volume, graphName string, opts EngineOptions) ([]uint32, error) {
	return ConnectedComponentsContext(context.Background(), vol, graphName, opts)
}

// PageRankContext runs `iterations` damped power iterations over a
// stored graph, returning a score per vertex, cancellable through ctx.
func PageRankContext(ctx context.Context, vol Volume, graphName string, iterations int, opts EngineOptions) ([]float64, error) {
	m, edges, err := graph.LoadEdges(vol, graphName)
	if err != nil {
		return nil, err
	}
	prog := algo.NewPageRank(graph.Degrees(m.Vertices, edges), iterations)
	res, err := algo.RunContext(ctx, vol, graphName, prog, opts)
	if err != nil {
		return nil, err
	}
	return prog.Ranks(res.Values), nil
}

// PageRank is PageRankContext without cancellation (compatibility
// wrapper; prefer the context form in new code).
func PageRank(vol Volume, graphName string, iterations int, opts EngineOptions) ([]float64, error) {
	return PageRankContext(context.Background(), vol, graphName, iterations, opts)
}

// WEdge is a weighted directed edge (SSSP).
type WEdge = graph.WEdge

// InfDistance is the SSSP distance of an unreached vertex.
var InfDistance = algo.Inf

// GenerateWeights assigns uniform random edge weights in [minW, maxW) to
// an edge list, producing a weighted graph for SSSP.
func GenerateWeights(m Meta, edges []Edge, minW, maxW float32, seed int64) (Meta, []WEdge, error) {
	return gen.Weigh(m, edges, minW, maxW, seed)
}

// StoreWeighted writes a weighted graph to a volume.
func StoreWeighted(vol Volume, m Meta, edges []WEdge) error {
	return graph.StoreWeighted(vol, m, edges)
}

// SSSPContext computes single-source shortest paths over a stored
// weighted graph with out-of-core Bellman-Ford iterations, returning one
// distance per vertex (InfDistance when unreached), cancellable through
// ctx.
func SSSPContext(ctx context.Context, vol Volume, graphName string, root VertexID, opts EngineOptions) ([]float32, error) {
	prog := algo.NewSSSP(root)
	res, err := algo.RunContext(ctx, vol, graphName, prog, opts)
	if err != nil {
		return nil, err
	}
	return prog.Distances(res.Values), nil
}

// SSSP is SSSPContext without cancellation (compatibility wrapper;
// prefer the context form in new code).
func SSSP(vol Volume, graphName string, root VertexID, opts EngineOptions) ([]float32, error) {
	return SSSPContext(context.Background(), vol, graphName, root, opts)
}

// MultiSourceBFSContext runs a reachability sweep from several roots at
// once, returning the hop distance per vertex (NoLevel when unreached),
// cancellable through ctx.
func MultiSourceBFSContext(ctx context.Context, vol Volume, graphName string, roots []VertexID, opts EngineOptions) ([]uint32, error) {
	prog := algo.NewMultiSourceBFS(roots)
	res, err := algo.RunContext(ctx, vol, graphName, prog, opts)
	if err != nil {
		return nil, err
	}
	return prog.Levels(res.Values), nil
}

// MultiSourceBFS is MultiSourceBFSContext without cancellation
// (compatibility wrapper; prefer the context form in new code).
func MultiSourceBFS(vol Volume, graphName string, roots []VertexID, opts EngineOptions) ([]uint32, error) {
	return MultiSourceBFSContext(context.Background(), vol, graphName, roots, opts)
}

// Serving: a long-lived concurrent query service over one stored graph
// (see internal/serve and cmd/fastbfsd).

type (
	// Service serves concurrent BFS / multi-source BFS / SSSP queries
	// over one stored graph with per-query cancellation, admission
	// control and a result cache.
	Service = serve.GraphService
	// ServiceConfig tunes a Service (concurrency, queue bound, cache
	// size, base engine options, tracer).
	ServiceConfig = serve.Config
	// Query is one request against a Service.
	Query = serve.Query
	// QueryResult is a Service query's answer.
	QueryResult = serve.Result
	// Algorithm selects what a Query computes.
	Algorithm = serve.Algorithm
	// ServiceStats is a snapshot of a Service's live counters.
	ServiceStats = serve.Stats
)

// The query algorithms.
const (
	AlgoBFS   = serve.AlgoBFS
	AlgoMSBFS = serve.AlgoMSBFS
	AlgoSSSP  = serve.AlgoSSSP
)

// NewService opens graphName on vol for serving. A missing graph fails
// with ErrGraphNotFound.
func NewService(vol Volume, graphName string, cfg ServiceConfig) (*Service, error) {
	return serve.New(vol, graphName, cfg)
}
