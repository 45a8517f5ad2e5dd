// Package runconfig implements the runtime-settings side of the FastBFS
// configuration file: "FastBFS ... uses an associated configuration file
// to describe the graph characteristics (e.g., vertices number) and
// runtime settings (e.g., the additional disk location), etc." (§III).
// Graph characteristics, the edge codec among them, live next to the
// dataset (graph.ReadConfig); this file carries the engine's per-run
// settings in the same plain key=value format, and nothing else: a
// daemon's own settings are its flags. It has 22 keys:
//
//	engine, root                          which engine, from which vertex
//	memory_budget, threads, stream_buf,   the settings every engine shares
//	prefetch_buffers, partitions,
//	max_iterations, scatter_workers,
//	direction
//	trim_start_iteration,                 FastBFS's trim policy
//	trim_visited_fraction,
//	disable_trimming,
//	disable_selective_scheduling,
//	stay_buf_size, stay_buf_count,
//	grace_period
//	sim, device, seek_scale,              the simulated testbed
//	additional_disk,
//	stay_disk_bandwidth_frac
package runconfig

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"fastbfs/internal/core"
	"fastbfs/internal/disksim"
	"fastbfs/internal/graph"
	"fastbfs/internal/xstream"
)

// Config is a parsed runtime-settings file.
type Config struct {
	// Engine selects fastbfs (default), xstream or graphchi.
	Engine string
	// Root is the BFS source vertex.
	Root graph.VertexID

	// Engine-shared settings (zero = engine default).
	MemoryBudget    uint64
	Threads         int
	StreamBufSize   int
	PrefetchBuffers int
	Partitions      int
	MaxIterations   int
	ScatterWorkers  int
	// Direction is the traversal direction policy: topdown (default),
	// bottomup, or auto for the Beamer-style hybrid. Empty means topdown.
	Direction xstream.Direction

	// FastBFS trim policy.
	TrimStartIteration         int
	TrimVisitedFraction        float64
	DisableTrimming            bool
	DisableSelectiveScheduling bool
	StayBufSize                int
	StayBufCount               int
	GracePeriod                float64

	// Simulated testbed. Sim=false runs wall-clock against real files.
	Sim bool
	// Device is "hdd" or "ssd".
	Device string
	// SeekScale divides the positioning cost (scaled testbeds).
	SeekScale float64
	// AdditionalDisk places update and stay-out streams on a second
	// device — the paper's example runtime setting.
	AdditionalDisk bool
	// StayDiskBandwidthFrac, when > 0, adds a dedicated stay disk with
	// the main device's bandwidth multiplied by this fraction.
	StayDiskBandwidthFrac float64
}

// Default returns the configuration used when a key is absent.
func Default() Config {
	return Config{Engine: "fastbfs", Device: "hdd", SeekScale: 1}
}

// Parse reads a runtime-settings file. Unknown keys are rejected —
// unlike the dataset config, a typo in a tuning knob should not pass
// silently. Blank lines and '#' comments are ignored.
func Parse(r io.Reader) (Config, error) {
	cfg := Default()
	sc := bufio.NewScanner(r)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, ok := strings.Cut(line, "=")
		if !ok {
			return cfg, fmt.Errorf("runconfig: line %d: missing '=': %q", lineno, line)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		if err := cfg.set(key, val); err != nil {
			return cfg, fmt.Errorf("runconfig: line %d: %w", lineno, err)
		}
	}
	if err := sc.Err(); err != nil {
		return cfg, fmt.Errorf("runconfig: %w", err)
	}
	return cfg, cfg.Validate()
}

// ParseFile is Parse on the file at path.
func ParseFile(path string) (Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return Config{}, err
	}
	defer f.Close()
	return Parse(f)
}

func (c *Config) set(key, val string) error {
	var err error
	switch key {
	case "engine":
		c.Engine = val
	case "root":
		var v uint64
		v, err = strconv.ParseUint(val, 10, 32)
		c.Root = graph.VertexID(v)
	case "memory_budget":
		c.MemoryBudget, err = parseBytes(val)
	case "threads":
		c.Threads, err = strconv.Atoi(val)
	case "stream_buf":
		var v uint64
		v, err = parseBytes(val)
		c.StreamBufSize = int(v)
	case "prefetch_buffers":
		c.PrefetchBuffers, err = strconv.Atoi(val)
	case "partitions":
		c.Partitions, err = strconv.Atoi(val)
	case "max_iterations":
		c.MaxIterations, err = strconv.Atoi(val)
	case "scatter_workers":
		c.ScatterWorkers, err = strconv.Atoi(val)
	case "direction":
		c.Direction, err = xstream.ParseDirection(val)
	case "trim_start_iteration":
		c.TrimStartIteration, err = strconv.Atoi(val)
	case "trim_visited_fraction":
		c.TrimVisitedFraction, err = strconv.ParseFloat(val, 64)
	case "disable_trimming":
		c.DisableTrimming, err = strconv.ParseBool(val)
	case "disable_selective_scheduling":
		c.DisableSelectiveScheduling, err = strconv.ParseBool(val)
	case "stay_buf_size":
		var v uint64
		v, err = parseBytes(val)
		c.StayBufSize = int(v)
	case "stay_buf_count":
		c.StayBufCount, err = strconv.Atoi(val)
	case "grace_period":
		c.GracePeriod, err = strconv.ParseFloat(val, 64)
	case "sim":
		c.Sim, err = strconv.ParseBool(val)
	case "device":
		c.Device = val
	case "seek_scale":
		c.SeekScale, err = strconv.ParseFloat(val, 64)
	case "additional_disk":
		c.AdditionalDisk, err = strconv.ParseBool(val)
	case "stay_disk_bandwidth_frac":
		c.StayDiskBandwidthFrac, err = strconv.ParseFloat(val, 64)
	default:
		return fmt.Errorf("unknown key %q", key)
	}
	if err != nil {
		return fmt.Errorf("bad value for %s: %w", key, err)
	}
	return nil
}

// parseBytes accepts plain byte counts and K/M/G suffixes (powers of
// 1024): "256M", "4G", "1048576".
func parseBytes(val string) (uint64, error) {
	mult := uint64(1)
	switch {
	case strings.HasSuffix(val, "K"):
		mult, val = 1<<10, strings.TrimSuffix(val, "K")
	case strings.HasSuffix(val, "M"):
		mult, val = 1<<20, strings.TrimSuffix(val, "M")
	case strings.HasSuffix(val, "G"):
		mult, val = 1<<30, strings.TrimSuffix(val, "G")
	}
	n, err := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
	if err != nil {
		return 0, err
	}
	return n * mult, nil
}

// Validate checks cross-field consistency.
func (c Config) Validate() error {
	switch c.Engine {
	case "fastbfs", "xstream", "graphchi":
	default:
		return fmt.Errorf("runconfig: unknown engine %q", c.Engine)
	}
	switch c.Device {
	case "hdd", "ssd":
	default:
		return fmt.Errorf("runconfig: unknown device %q (hdd or ssd)", c.Device)
	}
	if c.SeekScale <= 0 {
		return fmt.Errorf("runconfig: seek_scale must be positive, got %v", c.SeekScale)
	}
	if c.TrimVisitedFraction < 0 || c.TrimVisitedFraction > 1 {
		return fmt.Errorf("runconfig: trim_visited_fraction %v outside [0,1]", c.TrimVisitedFraction)
	}
	if c.StayDiskBandwidthFrac < 0 {
		return fmt.Errorf("runconfig: stay_disk_bandwidth_frac must be non-negative")
	}
	return nil
}

// EngineOptions materializes the engine-shared option set, building the
// simulated devices when Sim is set.
func (c Config) EngineOptions() xstream.Options {
	o := xstream.Options{
		Root:            c.Root,
		MemoryBudget:    c.MemoryBudget,
		Threads:         c.Threads,
		StreamBufSize:   c.StreamBufSize,
		PrefetchBuffers: c.PrefetchBuffers,
		Partitions:      c.Partitions,
		MaxIterations:   c.MaxIterations,
		ScatterWorkers:  c.ScatterWorkers,
		Direction:       c.Direction,
	}
	if !c.Sim {
		return o
	}
	mk := func(name string) *disksim.Device {
		if c.Device == "ssd" {
			return disksim.SSDScaled(name, c.SeekScale)
		}
		return disksim.HDDScaled(name, c.SeekScale)
	}
	sim := &xstream.SimConfig{
		CPU:      disksim.DefaultCPU(),
		Costs:    disksim.DefaultCosts(),
		MainDisk: mk(c.Device + "0"),
	}
	if c.AdditionalDisk {
		sim.AuxDisk = mk(c.Device + "1")
	}
	if c.StayDiskBandwidthFrac > 0 {
		stay := mk("stay0")
		stay.Bandwidth *= c.StayDiskBandwidthFrac
		sim.StayDisk = stay
	}
	o.Sim = sim
	return o
}

// CoreOptions materializes the full FastBFS option set.
func (c Config) CoreOptions() core.Options {
	return core.Options{
		Base:                       c.EngineOptions(),
		TrimStartIteration:         c.TrimStartIteration,
		TrimVisitedFraction:        c.TrimVisitedFraction,
		DisableTrimming:            c.DisableTrimming,
		DisableSelectiveScheduling: c.DisableSelectiveScheduling,
		StayBufSize:                c.StayBufSize,
		StayBufCount:               c.StayBufCount,
		GracePeriod:                c.GracePeriod,
	}
}
