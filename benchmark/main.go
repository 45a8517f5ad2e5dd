// Command benchmark is the repo's wall-clock benchmark: it drives the
// public entry points of fastbfs and its internal layers from outside,
// validates every answer, and reports timings in drift-normalised
// seconds next to exactly-repeating counts. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef is one metric declaration of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// contract is the part of BENCHMARK.json the benchmark itself reads:
// the metric names, units and bounds are declared there once.
type contract struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadContract finds BENCHMARK.json in the working directory or, when
// run from inside benchmark/, its parent, and returns that directory:
// the checkout root every default path hangs off.
func loadContract() (*contract, string, error) {
	var firstErr error
	for _, root := range []string{".", ".."} {
		path := filepath.Join(root, "BENCHMARK.json")
		b, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var c contract
		if err := json.Unmarshal(b, &c); err != nil {
			return nil, "", fmt.Errorf("%s: %w", path, err)
		}
		return &c, root, nil
	}
	return nil, "", firstErr
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	volDir   string
	outDir   string
	maxOps   int
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames())
	flag.Int64Var(&o.seed, "seed", 1, "seed for the generated graph and the root selection")
	flag.Float64Var(&o.seconds, "seconds", 0, "length of the timed phase (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced run: per-layer metrics, spans written to <out>/<workload>.trace.jsonl")
	flag.StringVar(&o.volDir, "voldir", "", "directory for the graph volume (default <checkout>/.bench_build/vol)")
	flag.StringVar(&o.outDir, "out", "", "directory for trace files (default <checkout>/benchmark/out)")
	flag.IntVar(&o.maxOps, "maxops", 0, "stop the timed phase after this many operations (0 = by time)")
	aa := flag.Int("aa", 0, "A/A mode: run the workload N times and check the spread of every end-to-end metric")
	varySeed := flag.Bool("aa-vary-seed", false, "with -aa: use seeds seed, seed+1, ... as the acceptance check does")
	baseline := flag.String("baseline", "", "run three sets per workload at seeds 1 and 2 plus one traced run each, and write them to this file")
	selftest := flag.Bool("selftest", false, "check the calibration kernel: no allocation, same reading inside every workload")
	flag.Parse()

	// SetDefaults of the engines reads FASTBFS_* variables; the
	// benchmark's configuration must not depend on the caller's shell.
	for _, kv := range os.Environ() {
		if name, _, _ := strings.Cut(kv, "="); strings.HasPrefix(name, "FASTBFS_") {
			os.Unsetenv(name)
		}
	}
	ct, root, err := loadContract()
	if err != nil {
		fatal(err)
	}
	if o.volDir == "" {
		o.volDir = filepath.Join(root, ".bench_build", "vol")
	}
	if o.outDir == "" {
		o.outDir = filepath.Join(root, "benchmark", "out")
	}
	if o.seconds <= 0 {
		o.seconds = float64(ct.RunSeconds)
	}
	switch {
	case *selftest:
		os.Exit(runSelfTest(o))
	case *baseline != "":
		os.Exit(runBaseline(ct, o, *baseline))
	case *aa > 0:
		os.Exit(runAA(ct, o, *aa, *varySeed))
	}
	res, err := runOnce(ct, o)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// runOnce runs one workload once, prints the human-readable report and
// returns what the last output line reports.
func runOnce(ct *contract, o options) (*result, error) {
	w := os.Stdout
	wl, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	for _, d := range ct.Workloads {
		if d.Name == wl.Name {
			fmt.Fprintf(w, "workload %s: %s\n", d.Name, d.Why)
		}
	}
	fmt.Fprintf(w, "config: %s\n", wl.describe())
	fmt.Fprintf(w, "seed %d, timed phase %.0f s, trace %d, GOMAXPROCS %d, %s\n", o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0), runtime.Version())

	e := &env{wl: wl, seed: o.seed, cal: newCalibrator(), goroutinesBefore: runtime.NumGoroutine()}
	defer e.close()
	spec := phaseSpec{seconds: o.seconds, minOps: wl.MinOps, maxOps: o.maxOps, warm: true}

	var defs []metricDef
	var vals map[string]float64
	if o.trace == 0 {
		if err := e.setUp(o.volDir, setupReps); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "volume: %s\n", e.volNote)
		p := e.runPhase(spec)
		defs, vals = ct.EndToEnd, e.endToEnd(p)
		if !p.rssReset {
			e.notes = append(e.notes, "/proc/self/clear_refs is not writable; peak_rss_mb includes set-up")
		}
		fmt.Fprintf(w, "timed operations: %d in %d calibrated rounds\n", len(p.ops), len(p.rounds))
		if wl.Serve {
			fmt.Fprintf(w, "service during them: %d batch runs for %d batched queries (%d alone), %d rejected, %d shed\n",
				p.svc1.BatchRuns-p.svc0.BatchRuns, p.svc1.BatchQueries-p.svc0.BatchQueries, p.svc1.BatchSolo-p.svc0.BatchSolo,
				p.svc1.Rejected-p.svc0.Rejected, p.svc1.Shed-p.svc0.Shed)
		}
	} else {
		e.rec = newSpanRecorder()
		if err := e.setUp(o.volDir, 1); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "volume: %s\n", e.volNote)
		defs = ct.PerLayer
		if vals, err = e.runTraced(spec); err != nil {
			return nil, err
		}
	}
	e.close()
	e.checkGoroutines()
	if o.trace != 0 {
		vals["proc.goroutines_after"] = float64(runtime.NumGoroutine())
		path := filepath.Join(o.outDir, wl.Name+".trace.jsonl")
		if err := e.rec.writeJSONL(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "spans: %d written to %s\n", len(e.rec.spans), path)
	}

	res := &result{Attempted: e.attempted, Failed: e.failed, Metrics: make(map[string]metric)}
	if err := fillMetrics(res, defs, vals); err != nil {
		return nil, err
	}
	res.Correct = e.failed == 0
	printReport(w, e, defs, res)
	return res, nil
}

// fillMetrics copies vals into res under the declared names and units,
// and insists the two sets match: a metric the benchmark computes but
// BENCHMARK.json does not declare (or the reverse) is a bug here.
func fillMetrics(res *result, defs []metricDef, vals map[string]float64) error {
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", d.Name)
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	if len(vals) != len(defs) {
		var extra []string
		for name := range vals {
			if _, ok := res.Metrics[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return fmt.Errorf("measured but not declared in BENCHMARK.json: %v", extra)
	}
	return nil
}

func printReport(w *os.File, e *env, defs []metricDef, res *result) {
	for _, d := range defs {
		m := res.Metrics[d.Name]
		fmt.Fprintf(w, "  %-46s %16.6g %s\n", d.Name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "attempted %d, failed %d (of which wrong answers %d)\n", e.attempted, e.failed, e.wrong)
	for _, f := range e.failures {
		fmt.Fprintln(w, "  failure:", f)
	}
	for _, n := range e.notes {
		fmt.Fprintln(w, "note:", n)
	}
}

// checkGoroutines waits briefly for the goroutine count to return to
// what it was before the workload; a goroutine that outlives the
// service and the HTTP server is a leak and fails the run.
func (e *env) checkGoroutines() {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > e.goroutinesBefore && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	n := runtime.NumGoroutine()
	e.check(n <= e.goroutinesBefore, "%d goroutines after the workload, %d before", n, e.goroutinesBefore)
}

func (e *env) runPhase(spec phaseSpec) *phase {
	if e.wl.Serve {
		return e.runServe(spec)
	}
	return e.runOOC(spec)
}

// endToEnd computes the six end-to-end metrics from an untraced phase.
func (e *env) endToEnd(p *phase) map[string]float64 {
	var edges int64
	for _, o := range p.ops {
		edges += o.edges
	}
	var normPhase float64
	var proc procSnap
	for _, r := range p.rounds {
		normPhase += r.normS()
		proc.add(r.proc)
	}
	return map[string]float64{
		"setup_s":               median(e.setupS),
		"query_norm_s.p50":      median(p.normLatencies()),
		"teps_norm":             float64(edges) / normPhase,
		"device_bytes_per_edge": e.deviceBytesPerEdge(p),
		"alloc_mb_per_query":    float64(proc.totalAlloc) / float64(len(p.ops)) / (1 << 20),
		"peak_rss_mb":           p.peakRSS,
	}
}

// deviceBytesPerEdge is the volume traffic of the first MinOps timed
// operations over (operations × stored edges). Those operations are the
// same on every run of a seed however long the phase lasts, so the
// number repeats exactly.
func (e *env) deviceBytesPerEdge(p *phase) float64 {
	var bytes int64
	ops := 0
	for _, r := range p.rounds {
		if ops >= e.wl.MinOps {
			break
		}
		bytes += r.io.BytesRead + r.io.BytesWritten
		ops += r.ops
	}
	if ops == 0 {
		return 0
	}
	return float64(bytes) / (float64(ops) * float64(e.meta.Edges))
}
