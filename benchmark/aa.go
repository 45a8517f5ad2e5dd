package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
)

// runChild runs this binary once as a fresh process — what the driver
// does — and parses the result line.
func runChild(o options) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", o.workload,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(o.trace),
		"-maxops", strconv.Itoa(o.maxOps),
		"-out", o.outDir,
		"-voldir", o.volDir,
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s %v: %w", self, args, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &res, nil
}

// aaRow is one end-to-end metric's values over the runs of an A/A set.
type aaRow struct {
	Name   string    `json:"name"`
	Unit   string    `json:"unit"`
	Bound  float64   `json:"bound"`
	Values []float64 `json:"values"`
	Min    float64   `json:"min"`
	Median float64   `json:"median"`
	Max    float64   `json:"max"`
	// Spread is the interquartile distance over the median — the number
	// the acceptance check computes — from four runs up, and (max−min)
	// over the median below that.
	Spread float64 `json:"spread"`
	OK     bool    `json:"ok"`
}

// aaSet is the checked-in form of one -aa run (see BASELINE.json).
type aaSet struct {
	Workload  string  `json:"workload"`
	Seeds     []int64 `json:"seeds"`
	Seconds   float64 `json:"seconds"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Rows      []aaRow `json:"metrics"`
}

// collectAA runs the workload n times as separate processes, on one
// seed or (varySeed) on n consecutive ones as the acceptance check does.
func collectAA(ct *contract, o options, n int, varySeed bool) (*aaSet, error) {
	set := &aaSet{Workload: o.workload, Seconds: o.seconds}
	vals := make(map[string][]float64)
	o.trace = 0
	for i := 0; i < n; i++ {
		run := o
		if varySeed {
			run.seed += int64(i)
		}
		res, err := runChild(run)
		if err != nil {
			return nil, err
		}
		set.Seeds = append(set.Seeds, run.seed)
		set.Attempted += res.Attempted
		set.Failed += res.Failed
		for name, m := range res.Metrics {
			vals[name] = append(vals[name], m.Value)
		}
		fmt.Fprintf(os.Stderr, "%s run %d/%d seed %d: attempted %d failed %d\n", o.workload, i+1, n, run.seed, res.Attempted, res.Failed)
	}
	for _, d := range ct.EndToEnd {
		v := vals[d.Name]
		row := aaRow{Name: d.Name, Unit: d.Unit, Bound: d.Bound, Values: v,
			Min: percentile(v, 0), Median: median(v), Max: percentile(v, 1), Spread: spreadOf(v)}
		row.OK = spreadOK(d.Name, row.Spread, d.Bound)
		set.Rows = append(set.Rows, row)
	}
	return set, nil
}

// ok reports whether no operation failed and every spread is within
// half its metric's bound.
func (set *aaSet) ok() bool {
	ok := set.Failed == 0
	for _, row := range set.Rows {
		ok = ok && row.OK
	}
	return ok
}

func (set *aaSet) print() {
	fmt.Printf("A/A %s: seeds %v, attempted %d, failed %d\n", set.Workload, set.Seeds, set.Attempted, set.Failed)
	fmt.Printf("  %-24s %-8s %12s %12s %12s %8s %8s\n", "metric", "unit", "min", "median", "max", "spread", "bound/2")
	for _, row := range set.Rows {
		verdict := ""
		if !row.OK {
			verdict = "  TOO WIDE"
		}
		fmt.Printf("  %-24s %-8s %12.6g %12.6g %12.6g %7.2f%% %7.2f%%%s\n",
			row.Name, row.Unit, row.Min, row.Median, row.Max, 100*row.Spread, 100*row.Bound/2, verdict)
	}
}

// runAA is -aa: one set, printed as a table and as one JSON line, and
// a non-zero exit when a spread exceeds half its bound.
func runAA(ct *contract, o options, n int, varySeed bool) int {
	set, err := collectAA(ct, o, n, varySeed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	fmt.Println("machine:", machineDescription(o.volDir))
	set.print()
	line, err := json.Marshal(set)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	fmt.Println(string(line))
	if !set.ok() {
		return 1
	}
	return 0
}

// baselineFile is the checked-in BASELINE.json: three runs of every
// workload at seeds 1 and 2, and one traced run of each at seed 1.
type baselineFile struct {
	Machine  string                       `json:"machine"`
	Seconds  float64                      `json:"seconds"`
	Sets     []*aaSet                     `json:"end_to_end"`
	PerLayer map[string]map[string]metric `json:"per_layer_seed1"`
}

// runBaseline is -baseline FILE.
func runBaseline(ct *contract, o options, path string) int {
	bf := baselineFile{Machine: machineDescription(o.volDir), Seconds: o.seconds, PerLayer: make(map[string]map[string]metric)}
	code := 0
	for _, wl := range workloads {
		o.workload = wl.Name
		for _, seed := range []int64{1, 2} {
			o.seed = seed
			set, err := collectAA(ct, o, 3, false)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 2
			}
			set.print()
			if !set.ok() {
				code = 1
			}
			bf.Sets = append(bf.Sets, set)
		}
		o.seed, o.trace = 1, 1
		res, err := runChild(o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		if res.Failed > 0 {
			code = 1
		}
		bf.PerLayer[wl.Name], o.trace = res.Metrics, 0
	}
	b, err := json.MarshalIndent(bf, "", " ")
	if err == nil {
		err = os.WriteFile(path, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	return code
}

// machineDescription is what BASELINE.json records next to its numbers.
func machineDescription(volDir string) string {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = string(bytes.TrimSpace(b))
	}
	if err := os.MkdirAll(volDir, 0o755); err != nil {
		volDir = "."
	}
	return fmt.Sprintf("nproc=%d kernel=%s %s %s/%s volume=%s", runtime.NumCPU(), kernel, runtime.Version(), runtime.GOOS, runtime.GOARCH, fsType(volDir))
}

// runSelfTest checks the instrument itself: the calibration kernel must
// not allocate, and inside each workload's process — grown heap, GC and
// scavenger running — it must read what it reads in a quiet process at
// the same time (within 10%). A kernel that slows down after a workload
// has allocated would bias that workload's normalised numbers. "At the
// same time" matters: the machine drifts by more than 10% over the
// minutes the four workloads take, so each workload's in-run median
// (bench.cal_s.p50 of a short traced run) is compared with readings
// this process takes right before and right after that run.
func runSelfTest(o options) int {
	c := newCalibrator()
	c.measure()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < 5; i++ {
		c.sink += c.kernel()
	}
	runtime.ReadMemStats(&m1)
	if d := m1.Mallocs - m0.Mallocs; d != 0 || m1.TotalAlloc != m0.TotalAlloc {
		fmt.Printf("FAIL: calibration kernel allocated (%d objects, %d bytes in 5 runs)\n", d, m1.TotalAlloc-m0.TotalAlloc)
		return 1
	}
	fmt.Println("ok: calibration kernel allocates nothing")
	quiet := func() float64 {
		var r []float64
		for i := 0; i < 5; i++ {
			r = append(r, c.measure())
		}
		return median(r)
	}
	o.trace, o.seconds, o.maxOps = 1, 2, 16
	code := 0
	for _, wl := range workloads {
		o.workload = wl.Name
		before := quiet()
		res, err := runChild(o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		ref := (before + quiet()) / 2
		in := res.Metrics["bench.cal_s.p50"].Value
		verdict := "ok"
		if math.Abs(in/ref-1) > 0.10 {
			verdict, code = "FAIL", 1
		}
		fmt.Printf("%s: %-16s kernel median %.4f s inside the workload, %.4f s in a quiet process around it (%+.1f%%)\n",
			verdict, wl.Name, in, ref, 100*(in/ref-1))
	}
	return code
}
