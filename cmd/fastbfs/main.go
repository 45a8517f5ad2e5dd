// Command fastbfs runs breadth-first search over a stored graph with a
// selectable engine — FastBFS (default), X-Stream or GraphChi — either
// against real files and the wall clock, or against the simulated
// testbed of the paper.
//
// Usage:
//
//	fastbfs -dir DATA -graph rmat20 -root 1 [-engine fastbfs|xstream|graphchi]
//	        [-mem 1073741824] [-threads 4] [-workers N] [-sim] [-simscale 2048]
//	        [-twodisks] [-ssd] [-trimstart 0] [-notrim] [-noselsched]
//	        [-direction auto|topdown|bottomup]
//	        [-checkpoint CKDIR] [-resume]
//	        [-report] [-validate] [-quiet]
//	        [-tracefile trace.jsonl] [-debugaddr localhost:6060]
//	fastbfs -dir DATA -graph rmat20 -config run.conf
//
// A -config file carries the paper's runtime settings (engine, budgets,
// trim policy, additional disk location) in the same key=value format as
// the dataset configuration; command-line flags are ignored when it is
// given, except -report, -validate, -checkpoint, -resume and the
// observability flags.
//
// Fault tolerance: -checkpoint names a directory where the FastBFS
// engine persists a crash-consistent manifest after every completed
// iteration, naming the per-level logs it keeps in -dir; re-running the
// same command with -resume restarts a killed run at the next iteration
// with byte-identical output, in any direction. A graph that fits -mem
// runs in memory and ignores both. I/O
// failures past the retry budget and detected data corruption exit with
// code 4.
//
// Observability: each BFS iteration prints a one-line progress update to
// stderr (suppress with -quiet). -tracefile writes a JSONL span/counter
// trace readable by cmd/tracecat. -debugaddr serves net/http/pprof under
// /debug/pprof/, the live engine counters as expvar under /debug/vars,
// and a plain-text progress page at /. The counters repeat the run record:
// scatter_chunks and scatter_busy_ns move with every scatter chunk, the
// rest as each iteration ends (DESIGN.md §11).
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"sync"

	"fastbfs/internal/bfs"
	"fastbfs/internal/core"
	"fastbfs/internal/errs"
	"fastbfs/internal/graph"
	"fastbfs/internal/obs"
	"fastbfs/internal/runconfig"
	"fastbfs/internal/serve"
	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

func main() {
	dir := flag.String("dir", ".", "directory holding the stored graph")
	name := flag.String("graph", "", "dataset name (required)")
	engine := flag.String("engine", "fastbfs", "engine: fastbfs, xstream or graphchi")
	root := flag.Uint64("root", 0, "BFS root vertex")
	mem := flag.Uint64("mem", 1<<30, "working memory budget in bytes")
	threads := flag.Int("threads", 4, "compute threads")
	workers := flag.Int("workers", 0, "scatter worker goroutines (0 = FASTBFS_WORKERS env or NumCPU; results are identical for any count)")
	sim := flag.Bool("sim", false, "use the paper's simulated testbed instead of wall-clock time (and the paper's engines: the update filter is off, every scatter trims)")
	simScale := flag.Float64("simscale", 1, "scale down the simulated positioning cost by this factor")
	ssd := flag.Bool("ssd", false, "simulate the SSD instead of the HDD")
	twoDisks := flag.Bool("twodisks", false, "simulate a second disk for update/stay streams")
	trimStart := flag.Int("trimstart", 0, "fastbfs: delay trimming until this iteration (0 = a scatter trims when its partition's edge counts say the stay file pays; -1 = every scatter trims, the paper's default)")
	direction := flag.String("direction", "", "search direction: topdown, bottomup, or auto (Beamer-style hybrid; empty = topdown)")
	noTrim := flag.Bool("notrim", false, "fastbfs: disable trimming")
	noSelSched := flag.Bool("noselsched", false, "fastbfs: disable selective scheduling")
	checkpoint := flag.String("checkpoint", "", "fastbfs: persist a crash-consistent checkpoint manifest to this directory after every iteration")
	resume := flag.Bool("resume", false, "fastbfs: resume from the -checkpoint directory's manifest (fresh run when there is none)")
	report := flag.Bool("report", false, "print the full per-iteration report")
	validate := flag.Bool("validate", false, "validate the BFS tree against the edge list (loads it in memory)")
	configPath := flag.String("config", "", "runtime-settings file (overrides the other flags)")
	traceFile := flag.String("tracefile", "", "write a JSONL span/counter trace to this file (see cmd/tracecat)")
	debugAddr := flag.String("debugaddr", "", "serve pprof, expvar counters and a progress page on this address (e.g. localhost:6060)")
	quiet := flag.Bool("quiet", false, "suppress per-iteration progress lines on stderr")
	flag.Parse()

	if *name == "" {
		fmt.Fprintln(os.Stderr, "fastbfs: -graph is required")
		os.Exit(2)
	}
	osVol, err := storage.NewOS(*dir)
	if err != nil {
		fail(err)
	}

	ob, vol, err := setupObservability(osVol, *traceFile, *debugAddr, *quiet)
	if err != nil {
		fail(err)
	}
	defer ob.close()

	ckVol, err := checkpointVolume(*checkpoint, *resume)
	if err != nil {
		fail(err)
	}

	// One path from settings to options: the flags fill the same
	// runconfig.Config a -config file parses into.
	cfg := runconfig.Default()
	if *configPath != "" {
		if cfg, err = runconfig.ParseFile(*configPath); err != nil {
			fail(err)
		}
	} else {
		cfg.Engine, cfg.Root = *engine, graph.VertexID(*root)
		cfg.MemoryBudget, cfg.Threads, cfg.ScatterWorkers = *mem, *threads, *workers
		cfg.TrimStartIteration, cfg.DisableTrimming, cfg.DisableSelectiveScheduling = *trimStart, *noTrim, *noSelSched
		cfg.Sim, cfg.SeekScale, cfg.AdditionalDisk = *sim, *simScale, *twoDisks
		if *ssd {
			cfg.Device = "ssd"
		}
		// An empty -direction stays unset, so the engine's default
		// (topdown) applies.
		if *direction != "" {
			if cfg.Direction, err = xstream.ParseDirection(*direction); err != nil {
				fail(err)
			}
		}
	}
	ob.noteRun(cfg.Engine, *name, cfg.Sim)
	eng, err := serve.ParseEngine(cfg.Engine)
	if err != nil {
		fail(err)
	}
	co := cfg.CoreOptions()
	if cfg.Sim {
		// The simulated testbed reproduces the paper's figures, so it runs
		// the paper's engines.
		paperEngines(&co)
	}
	co.Base.Tracer = ob.tracer
	co.CheckpointVol = ckVol
	co.Resume = *resume
	res, err := serve.RunEngine(context.Background(), eng, vol, *name, co)
	if err != nil {
		fail(err)
	}

	if *report {
		fmt.Print(res.Metrics.Report())
	} else {
		fmt.Println(res.Metrics.String())
	}
	if *validate {
		validateResult(vol, *name, cfg.Root, res)
	}
}

// paperEngines pins a simulated run to the engines the paper measured,
// whose figures the testbed reproduces: every frontier out-edge's update is
// shuffled (no update filter) and trimming goes by the paper's threshold —
// from the first iteration, unless a later start is set.
func paperEngines(o *core.Options) {
	o.Base.DisableUpdateFilter = true
	if o.TrimStartIteration == 0 {
		o.TrimStartIteration = core.TrimEveryIteration
	}
}

// checkpointVolume opens the -checkpoint directory as a volume;
// -resume without -checkpoint is a usage error. Returns a nil volume
// (checkpointing off) when no directory was named.
func checkpointVolume(dir string, resume bool) (storage.Volume, error) {
	if dir == "" {
		if resume {
			return nil, fmt.Errorf("-resume needs -checkpoint to name the manifest directory: %w", errs.ErrBadOptions)
		}
		return nil, nil
	}
	return storage.NewOS(dir)
}

func validateResult(vol storage.Volume, name string, root graph.VertexID, res *xstream.Result) {
	m, edges, err := graph.LoadEdges(vol, name)
	if err != nil {
		fail(err)
	}
	r := &bfs.Result{Root: root, Level: res.Levels, Parent: res.Parents, Visited: res.Visited}
	if err := bfs.Validate(m, edges, r); err != nil {
		fail(fmt.Errorf("validation FAILED: %w", err))
	}
	fmt.Println("validation: OK (Graph500-style parent tree check)")
}

// observability bundles the run's tracer and its attachments (trace
// file, progress printer, debug HTTP server, counting volume).
type observability struct {
	tracer *obs.Tracer
	vol    *storage.Counting // nil when tracing is off
}

// setupObservability builds the tracer requested by the flags and, when
// any observer is active, wraps the volume so byte/op counters flow to
// the progress page and wall-mode device stats. With -quiet and no
// -tracefile/-debugaddr it returns a nil tracer: the engines' hot paths
// then pay nothing.
func setupObservability(vol storage.Volume, traceFile, debugAddr string, quiet bool) (*observability, storage.Volume, error) {
	if traceFile == "" && debugAddr == "" && quiet {
		return &observability{}, vol, nil
	}
	tr := obs.New()
	cv := storage.NewCounting(vol, "os0")
	ob := &observability{tracer: tr, vol: cv}
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			return nil, nil, err
		}
		tr.AddSink(obs.NewJSONLSink(f))
	}
	if !quiet {
		tr.AddSink(progressSink(os.Stderr))
	}
	if debugAddr != "" {
		if err := ob.serveDebug(debugAddr); err != nil {
			return nil, nil, err
		}
	}
	return ob, cv, nil
}

func (ob *observability) close() {
	if err := ob.tracer.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "fastbfs: closing trace:", err)
	}
}

func (ob *observability) noteRun(engine, graphName string, sim bool) {
	mode := "wall"
	if sim {
		mode = "sim"
	}
	ob.tracer.Note("run", map[string]string{"engine": engine, "graph": graphName, "mode": mode})
}

// progressSink prints a one-line update per completed BFS iteration.
// Timestamps are virtual seconds in sim mode, wall seconds otherwise.
func progressSink(w *os.File) obs.Sink {
	return obs.FuncSink(func(e obs.Event) {
		if e.Kind != obs.KindSpan || e.Name != "iteration" {
			return
		}
		fmt.Fprintf(w, "iter %3d  frontier=%-9d new=%-9d edges=%-10d t=%.3fs\n",
			e.Iter, e.Attrs["frontier"], e.Attrs["new"], e.Attrs["edges"], e.T)
	})
}

var publishOnce sync.Once

// serveDebug starts the debug HTTP server: net/http/pprof under
// /debug/pprof/, expvar (including the live engine counters, published
// as "fastbfs") under /debug/vars, and a plain-text progress page at /.
func (ob *observability) serveDebug(addr string) error {
	publishOnce.Do(func() {
		expvar.Publish("fastbfs", expvar.Func(func() any { return ob.tracer.CounterMap() }))
	})
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/", ob.progressPage)
	// Bind synchronously so a bad address fails the run up front; the
	// server itself runs for the life of the process.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("debug server on %s: %w", addr, err)
	}
	go http.Serve(ln, mux)
	return nil
}

func (ob *observability) progressPage(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "fastbfs live progress\n\n")
	fmt.Fprintf(w, "engine time: %.3f s\n\n", ob.tracer.LastTime())
	for _, cv := range ob.tracer.Snapshot() {
		fmt.Fprintf(w, "%-22s %d\n", cv.Name, cv.Value)
	}
	if ob.vol != nil {
		s := ob.vol.Stats()
		fmt.Fprintf(w, "\nvolume %s: read=%d bytes (%d opens), written=%d bytes (%d files)\n",
			ob.vol.Name(), s.BytesRead, s.ReadOps, s.BytesWritten, s.WriteOps)
	}
}

// fail reports err and exits with its errs.ExitCode.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "fastbfs:", err)
	os.Exit(errs.ExitCode(err))
}
