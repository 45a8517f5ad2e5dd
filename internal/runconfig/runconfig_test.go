package runconfig

import (
	"reflect"
	"strings"
	"testing"

	"fastbfs/internal/disksim"
	"fastbfs/internal/xstream"
)

// TestParseFull sets every one of the 22 keys the package doc lists.
func TestParseFull(t *testing.T) {
	in := `
# the paper's example: an additional disk for update and stay streams
engine = fastbfs
root = 42
memory_budget = 256M
threads = 8
stream_buf = 64K
prefetch_buffers = 4
partitions = 3
max_iterations = 100
scatter_workers = 3
direction = auto
trim_start_iteration = 2
trim_visited_fraction = 0.25
disable_trimming = false
disable_selective_scheduling = true
stay_buf_size = 1M
stay_buf_count = 16
grace_period = 0.1
sim = true
device = ssd
seek_scale = 2048
additional_disk = true
stay_disk_bandwidth_frac = 0.5
`
	cfg, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Engine != "fastbfs" || cfg.Root != 42 {
		t.Fatalf("engine/root: %+v", cfg)
	}
	if cfg.MemoryBudget != 256<<20 || cfg.StreamBufSize != 64<<10 || cfg.StayBufSize != 1<<20 {
		t.Fatalf("byte sizes: %+v", cfg)
	}
	if cfg.Threads != 8 || cfg.PrefetchBuffers != 4 || cfg.Partitions != 3 || cfg.MaxIterations != 100 {
		t.Fatalf("ints: %+v", cfg)
	}
	if cfg.TrimStartIteration != 2 || cfg.TrimVisitedFraction != 0.25 || !cfg.DisableSelectiveScheduling {
		t.Fatalf("trim policy: %+v", cfg)
	}
	if cfg.ScatterWorkers != 3 || cfg.Direction != xstream.DirectionAuto {
		t.Fatalf("workers and direction: %+v", cfg)
	}

	o := cfg.CoreOptions()
	if o.Base.MemoryBudget != 256<<20 || o.Base.Threads != 8 {
		t.Fatalf("core base: %+v", o.Base)
	}
	if o.GracePeriod != 0.1 || o.StayBufCount != 16 {
		t.Fatalf("core opts: %+v", o)
	}
	if o.Base.Direction != xstream.DirectionAuto {
		t.Fatalf("direction not propagated: %+v", o.Base)
	}
	sim := o.Base.Sim
	if sim == nil || sim.MainDisk == nil || sim.AuxDisk == nil || sim.StayDisk == nil {
		t.Fatalf("sim devices missing: %+v", sim)
	}
	if sim.MainDisk.Name != "ssd0" || sim.AuxDisk.Name != "ssd1" {
		t.Fatalf("device names: %s / %s", sim.MainDisk.Name, sim.AuxDisk.Name)
	}
	if sim.StayDisk.Bandwidth != sim.MainDisk.Bandwidth*0.5 {
		t.Fatalf("stay disk bandwidth: %v vs %v", sim.StayDisk.Bandwidth, sim.MainDisk.Bandwidth)
	}
	// Seek scaled down 2048x from the SSD preset.
	if sim.MainDisk.SeekLatency >= 60e-6 {
		t.Fatalf("seek not scaled: %v", sim.MainDisk.SeekLatency)
	}
}

func TestParseDefaults(t *testing.T) {
	cfg, err := Parse(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Engine != "fastbfs" || cfg.Device != "hdd" || cfg.SeekScale != 1 || cfg.Sim {
		t.Fatalf("defaults: %+v", cfg)
	}
	if cfg.EngineOptions().Sim != nil {
		t.Fatal("wall-clock config produced a simulation")
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"unknown key":      "warp_speed = 9\n",
		"missing equals":   "threads 4\n",
		"bad int":          "threads = many\n",
		"bad bool":         "sim = maybe\n",
		"bad bytes":        "memory_budget = 4Q\n",
		"bad engine":       "engine = spark\n",
		"bad device":       "sim = true\ndevice = tape\n",
		"bad seek scale":   "seek_scale = 0\n",
		"bad trim frac":    "trim_visited_fraction = 1.5\n",
		"negative stay bw": "stay_disk_bandwidth_frac = -1\n",
		"bad direction":    "direction = sideways\n",
	}
	for name, in := range cases {
		if _, err := Parse(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

func TestParseBytesSuffixes(t *testing.T) {
	for in, want := range map[string]uint64{
		"123": 123,
		"4K":  4096,
		"2M":  2 << 20,
		"3G":  3 << 30,
		"1 K": 1024, // inner space trimmed
	} {
		got, err := parseBytes(in)
		if err != nil || got != want {
			t.Errorf("parseBytes(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
}

func TestParseOverloadKeys(t *testing.T) {
	// A settings file holds engine settings only. The daemon's batching
	// and overload settings are its flags; the admission knobs no
	// deployment set, the residency budget, the store-time reorder, the
	// second grace period and the working-file codec (a graph's codec is
	// the one it was stored in) are gone. A file that names one is rejected
	// like any other unknown key.
	for _, key := range []string{"batch_size", "batch_wait_ms", "shed", "breaker_threshold", "cache_ttl_ms",
		"shed_target_ms", "shed_interval_ms", "breaker_backoff_ms", "breaker_max_backoff_ms", "priority_header",
		"residency_budget", "reorder", "grace_wall_ms", "codec"} {
		if _, err := Parse(strings.NewReader(key + " = 1\n")); err == nil || !strings.Contains(err.Error(), "unknown key") {
			t.Errorf("removed key %s: err %v, want an unknown key", key, err)
		}
	}
}

// TestFlagBuiltMatchesFileBuilt pins the one path from settings to
// options: a Config filled field by field, the way cmd/fastbfs and
// cmd/fastbfsd fill it from their flags, materializes the same
// core.Options as a settings file that says the same thing — and the
// simulated testbed the commands used to build by hand from -sim, -ssd,
// -simscale and -twodisks.
func TestFlagBuiltMatchesFileBuilt(t *testing.T) {
	testbed := func(main, aux *disksim.Device) *xstream.SimConfig {
		return &xstream.SimConfig{CPU: disksim.DefaultCPU(), Costs: disksim.DefaultCosts(), MainDisk: main, AuxDisk: aux}
	}
	for _, c := range []struct {
		name  string
		flags func(*Config)
		file  string
		sim   *xstream.SimConfig
	}{
		{"defaults", func(*Config) {}, "", nil},
		{"wall, the CLI's flag defaults",
			func(c *Config) { c.MemoryBudget, c.Threads = 1<<30, 4 },
			"memory_budget = 1G\nthreads = 4", nil},
		{"-sim", func(c *Config) { c.Sim = true }, "sim = true", testbed(disksim.HDDScaled("hdd0", 1), nil)},
		{"-sim -ssd -simscale 2048 -twodisks",
			func(c *Config) { c.Sim, c.Device, c.SeekScale, c.AdditionalDisk = true, "ssd", 2048, true },
			"sim = true\ndevice = ssd\nseek_scale = 2048\nadditional_disk = true",
			testbed(disksim.SSDScaled("ssd0", 2048), disksim.SSDScaled("ssd1", 2048))},
		{"-sim -twodisks on the HDD",
			func(c *Config) { c.Sim, c.AdditionalDisk = true, true },
			"sim = true\nadditional_disk = true",
			testbed(disksim.HDDScaled("hdd0", 1), disksim.HDDScaled("hdd1", 1))},
		{"engine, root and policy flags",
			func(c *Config) {
				c.Engine, c.Root, c.ScatterWorkers = "xstream", 42, 3
				c.Direction = xstream.DirectionAuto
				c.TrimStartIteration, c.DisableTrimming, c.DisableSelectiveScheduling = -1, true, true
			},
			"engine = xstream\nroot = 42\nscatter_workers = 3\ndirection = auto\n" +
				"trim_start_iteration = -1\ndisable_trimming = true\ndisable_selective_scheduling = true", nil},
	} {
		built := Default()
		c.flags(&built)
		parsed, err := Parse(strings.NewReader(c.file))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(built, parsed) {
			t.Errorf("%s: flag-built config %+v, file-built %+v", c.name, built, parsed)
		}
		got := built.CoreOptions()
		if want := parsed.CoreOptions(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: flag-built options %+v, file-built %+v", c.name, got, want)
		}
		if !reflect.DeepEqual(got.Base.Sim, c.sim) {
			t.Errorf("%s: simulated testbed %+v, want %+v", c.name, got.Base.Sim, c.sim)
		}
	}
}
