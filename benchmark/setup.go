package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"fastbfs"
	"fastbfs/internal/bfs"
	"fastbfs/internal/core"
	"fastbfs/internal/graph"
	"fastbfs/internal/serve"
	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

const (
	setupReps = 3
	numRoots  = 64
	unreached = 0xFF // reference levels are stored as bytes
)

// refBFS is the reference answer for one root, computed once at set-up
// by internal/bfs over the generated edge list.
type refBFS struct {
	root    graph.VertexID
	level   []uint8 // unreached = 0xFF
	visited uint64
	// edges is the out-degree sum of the reached vertices: the edges a
	// BFS from this root traverses, the numerator of TEPS.
	edges int64
}

// env is everything one run of one workload owns.
type env struct {
	wl   *workload
	seed int64
	cal  *calibrator
	rec  *spanRecorder // nil in the untraced run

	scratch string // removed at exit
	volNote string
	vol     *storage.Counting
	meta    graph.Meta
	edges   []graph.Edge
	csr     *bfs.CSR
	refs    []refBFS
	stored  map[string]bool // the volume's listing right after StoreGraph

	svc    *serve.GraphService
	srv    *httptest.Server
	client *http.Client

	// Normalised set-up timings: one total per repetition, and the last
	// repetition's parts for the per-layer metrics.
	setupS              []float64
	genS, storeS, openS float64
	cals                []float64 // every calibration reading of the run
	goroutinesBefore    int
	attempted, failed   int
	wrong               int
	failures            []string
	notes               []string // printed with the report
}

// check counts one harness check as an operation: attempted, and
// failed unless ok.
func (e *env) check(ok bool, format string, args ...any) {
	e.attempted++
	if !ok {
		e.fail(format, args...)
	}
}

func (e *env) fail(format string, args ...any) {
	e.failed++
	if len(e.failures) < 8 {
		e.failures = append(e.failures, fmt.Sprintf(format, args...))
	}
}

// settle flushes dirty file data and pending journal commits. On a
// disk-backed checkout the write-back left over from earlier operations
// otherwise runs under the next timed interval: in sizing runs on ext4
// the same query crept 25% slower over five minutes and then fell back,
// and run-to-run spread was twice that of tmpfs. Flushing between timed
// intervals (never inside one) halved it.
func settle() { syscall.Sync() }

// calibrate settles the volume, takes one kernel reading and keeps it
// for bench.cal_s.*.
func (e *env) calibrate() float64 {
	settle()
	c := e.cal.measure()
	e.cals = append(e.cals, c)
	return c
}

// newScratch makes this run's private directory under volDir and
// describes it (path and filesystem) for the report.
func newScratch(volDir string) (dir, note string, err error) {
	if err := os.MkdirAll(volDir, 0o755); err != nil {
		return "", "", err
	}
	dir, err = os.MkdirTemp(volDir, "run-")
	if err != nil {
		return "", "", err
	}
	return dir, fmt.Sprintf("%s (%s)", dir, fsType(dir)), nil
}

// fsType names the filesystem holding dir, from /proc/mounts (longest
// mount-point prefix); "unknown" when that cannot be read.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	b, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}

func (w *workload) serveConfig() serve.Config {
	return serve.Config{
		MaxInFlight: w.MaxInFlight,
		BatchSize:   w.BatchSize,
		BatchWait:   w.BatchWait,
		Base: core.Options{Base: xstream.Options{
			MemoryBudget:   w.MemoryBudget,
			ScatterWorkers: w.Workers,
			Direction:      w.Direction,
		}},
	}
}

// setUp generates and stores the graph reps times — each repetition is
// what a user pays before the first query can be served — keeps the
// last one, and then prepares the harness's own reference data (not
// part of setup_s).
func (e *env) setUp(volDir string, reps int) error {
	var err error
	e.scratch, e.volNote, err = newScratch(volDir)
	if err != nil {
		return err
	}
	ctx := context.Background()
	for rep := 0; rep < reps; rep++ {
		e.edges, e.csr = nil, nil
		dir := filepath.Join(e.scratch, fmt.Sprintf("vol%d", rep))
		osv, err := storage.NewOS(dir)
		if err != nil {
			return err
		}
		vol := storage.NewCounting(osv, "bench")

		c0 := e.calibrate()
		t0 := time.Now()
		sp := e.rec.begin("fastbfs.GenerateRMAT", 0, 0)
		meta, edges, err := fastbfs.GenerateRMAT(e.wl.Scale, e.wl.EdgeFactor, e.seed)
		e.rec.end(sp)
		if err != nil {
			return err
		}
		t1 := time.Now()
		sp = e.rec.begin("fastbfs.StoreGraph", 0, 0)
		err = fastbfs.StoreGraph(ctx, vol, meta, edges, e.wl.Store)
		e.rec.end(sp)
		if err != nil {
			return err
		}
		t2 := time.Now()
		var svc *serve.GraphService
		if e.wl.Serve {
			sp = e.rec.begin("serve.New", 0, 0)
			svc, err = serve.New(vol, meta.Name, e.wl.serveConfig())
			e.rec.end(sp)
			if err != nil {
				return err
			}
		}
		t3 := time.Now()
		c1 := e.calibrate()

		e.setupS = append(e.setupS, normalise(t3.Sub(t0).Seconds(), c0, c1))
		e.genS = normalise(t1.Sub(t0).Seconds(), c0, c1)
		e.storeS = normalise(t2.Sub(t1).Seconds(), c0, c1)
		e.openS = normalise(t3.Sub(t2).Seconds(), c0, c1)
		if rep < reps-1 {
			if svc != nil {
				if err := svc.Close(); err != nil {
					return err
				}
			}
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
			continue
		}
		e.vol, e.edges, e.svc = vol, edges, svc
		if e.meta, err = graph.LoadMeta(vol, meta.Name); err != nil {
			return err
		}
	}
	e.stored = make(map[string]bool)
	for _, name := range e.vol.List() {
		e.stored[name] = true
	}
	return e.buildReferences()
}

// buildReferences draws numRoots distinct roots that make the same
// class of work — in the giant component, with a BFS tree of exactly
// rootLevels levels — and keeps the reference levels of each.
func (e *env) buildReferences() error {
	var err error
	if e.csr, err = bfs.BuildCSR(e.meta, e.edges); err != nil {
		return err
	}
	v := e.meta.Vertices
	rng := rand.New(rand.NewSource(e.seed))
	seen := make(map[graph.VertexID]bool)
	for tries := 0; len(e.refs) < numRoots; tries++ {
		if tries > 100*numRoots {
			return fmt.Errorf("found only %d giant-component roots of %d levels in %d draws", len(e.refs), rootLevels, tries)
		}
		r := graph.VertexID(rng.Int63n(int64(v)))
		if seen[r] || len(e.csr.Neighbors(r)) == 0 {
			continue
		}
		seen[r] = true
		res := bfs.RunCSR(e.meta, e.csr, r)
		if res.Visited*4 < v || res.Levels() != rootLevels {
			continue
		}
		ref := refBFS{root: r, level: make([]uint8, v), visited: res.Visited}
		for u, l := range res.Level {
			switch {
			case l == bfs.NoLevel:
				ref.level[u] = unreached
			case l >= unreached:
				return fmt.Errorf("root %d: level %d does not fit the reference encoding", r, l)
			default:
				ref.level[u] = uint8(l)
				ref.edges += int64(len(e.csr.Neighbors(graph.VertexID(u))))
			}
		}
		e.refs = append(e.refs, ref)
	}
	return nil
}

// checkTree validates one BFS answer in full: levels equal to the
// reference vertex for vertex, and every parent a real in-neighbour one
// level up (the Graph500 tree rules, against the harness's own CSR).
func (e *env) checkTree(ref *refBFS, levels []uint32, parents []graph.VertexID, visited uint64) error {
	if len(levels) != len(ref.level) || len(parents) != len(ref.level) {
		return fmt.Errorf("root %d: result arrays sized %d/%d, want %d", ref.root, len(levels), len(parents), len(ref.level))
	}
	if visited != ref.visited {
		return fmt.Errorf("root %d: visited %d, reference %d", ref.root, visited, ref.visited)
	}
	for u, want := range ref.level {
		l, p := levels[u], parents[u]
		if want == unreached {
			if l != xstream.NoLevel || p != graph.NoVertex {
				return fmt.Errorf("root %d: vertex %d reached (level %d) but unreachable", ref.root, u, l)
			}
			continue
		}
		if l != uint32(want) {
			return fmt.Errorf("root %d: vertex %d at level %d, reference %d", ref.root, u, l, want)
		}
		if graph.VertexID(u) == ref.root {
			if p != ref.root {
				return fmt.Errorf("root %d: root's parent is %d", ref.root, p)
			}
			continue
		}
		if uint64(p) >= uint64(len(levels)) || levels[p]+1 != l || !e.csr.HasEdge(p, graph.VertexID(u)) {
			return fmt.Errorf("root %d: vertex %d (level %d) has bad parent %d", ref.root, u, l, p)
		}
	}
	return nil
}

// leakedFiles lists volume files that are not part of the stored graph.
func (e *env) leakedFiles() []string {
	var leaked []string
	for _, name := range e.vol.List() {
		if !e.stored[name] {
			leaked = append(leaked, name)
		}
	}
	sort.Strings(leaked)
	return leaked
}

// close stops the listener and the service and removes the volume; it
// may be called twice.
func (e *env) close() {
	if e.srv != nil {
		e.client.CloseIdleConnections()
		e.srv.Close()
		e.srv = nil
	}
	if e.svc != nil {
		e.svc.Close()
		e.svc = nil
	}
	if e.scratch != "" {
		os.RemoveAll(e.scratch)
		e.scratch = ""
	}
}
