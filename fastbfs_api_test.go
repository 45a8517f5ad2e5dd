package fastbfs

import (
	"context"
	"errors"
	"io"
	"reflect"
	"testing"
	"time"

	"fastbfs/internal/obs"
)

// TestPublicContextAPI covers the context-first entry points: the
// unified Run dispatcher, cancellation surfacing ErrCancelled from every
// layer, the sentinel taxonomy, and the embedded query service.
func TestPublicContextAPI(t *testing.T) {
	vol := NewMemVolume()
	meta, edges, err := GenerateRMAT(8, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := Store(vol, meta, edges); err != nil {
		t.Fatal(err)
	}

	opts := DefaultOptions()
	opts.Base.Root = 1
	opts.Base.MemoryBudget = 4096
	opts.Base.StreamBufSize = 256

	// Run is engine dispatch: all three engines agree on reachability.
	var visited []uint64
	for _, e := range []Engine{EngineFastBFS, EngineXStream, EngineGraphChi} {
		o := opts
		o.Base.Sim = DefaultSim()
		res, err := Run(context.Background(), e, vol, meta.Name, o)
		if err != nil {
			t.Fatalf("Run(%s): %v", e, err)
		}
		visited = append(visited, res.Visited)
	}
	if visited[0] != visited[1] || visited[0] != visited[2] {
		t.Fatalf("engines disagree: %v", visited)
	}

	// A dead context surfaces ErrCancelled (with its cause in the chain)
	// from every context-first entry point.
	dead, kill := context.WithCancel(context.Background())
	kill()
	if _, err := BFSContext(dead, vol, meta.Name, opts); !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("BFSContext on a dead context: %v", err)
	}
	if _, err := Run(dead, EngineXStream, vol, meta.Name, opts); !errors.Is(err, ErrCancelled) {
		t.Fatalf("Run(xstream) on a dead context: %v", err)
	}
	if _, err := SSSPContext(dead, vol, meta.Name, 1, opts.Base); !errors.Is(err, ErrCancelled) {
		t.Fatalf("SSSPContext on a dead context: %v", err)
	}
	if _, err := MultiSourceBFSContext(dead, vol, meta.Name, []VertexID{1, 2}, opts.Base); !errors.Is(err, ErrCancelled) {
		t.Fatalf("MultiSourceBFSContext on a dead context: %v", err)
	}

	// Sentinel taxonomy.
	if e, err := ParseEngine("graphchi"); err != nil || e != EngineGraphChi {
		t.Fatalf("ParseEngine(graphchi) = %v, %v", e, err)
	}
	if _, err := ParseEngine("spark"); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("ParseEngine(spark): %v, want ErrBadOptions", err)
	}
	if _, err := LoadMeta(vol, "absent"); !errors.Is(err, ErrGraphNotFound) {
		t.Fatalf("LoadMeta(absent): %v, want ErrGraphNotFound", err)
	}
	o := opts
	o.Base.Root = VertexID(meta.Vertices) + 1
	if _, err := BFS(vol, meta.Name, o); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("BFS with an out-of-range root: %v, want ErrBadOptions", err)
	}

	// The service through the facade aliases.
	svc, err := NewService(vol, meta.Name, ServiceConfig{Base: opts})
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Submit(context.Background(), Query{Algorithm: AlgoBFS, Root: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Visited != visited[0] {
		t.Fatalf("service BFS visited %d, engine run visited %d", res.Visited, visited[0])
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Submit(context.Background(), Query{Algorithm: AlgoBFS, Root: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after Close: %v, want ErrClosed", err)
	}
}

// TestServiceAPIPinned is the offline half of the API guard: it names
// every exported field of ServiceConfig and Query, the deprecated no-ops
// included, so removing one fails to compile. A field added later and
// not named here fails the non-zero check below.
func TestServiceAPIPinned(t *testing.T) {
	cfg := ServiceConfig{
		MaxInFlight:        1,
		MaxQueue:           1,
		CacheEntries:       1,
		BatchSize:          1,
		BatchWait:          time.Millisecond,
		Base:               DefaultOptions(),
		Tracer:             obs.New(),
		SlowQueryThreshold: time.Second,
		SlowQueryLog:       io.Discard,
		Shed:               true,
		ShedTarget:         time.Millisecond,
		ShedInterval:       time.Millisecond,
		CacheTTL:           time.Second,
		BreakerThreshold:   1,
		BreakerBackoff:     time.Second,
		BreakerMaxBackoff:  time.Second,
		PriorityHeader:     "X-Fastbfs-Priority", // Deprecated: ignored
		PanicRoot:          1,
	}
	q := Query{
		Algorithm:     AlgoMSBFS,
		Engine:        EngineXStream,
		Root:          1,
		Roots:         []VertexID{1},
		MaxIterations: 1,
		NoCache:       true,
		Priority:      1, // Deprecated: ignored
		AllowStale:    true,
		TraceID:       "pin",
	}
	for _, v := range []reflect.Value{reflect.ValueOf(cfg), reflect.ValueOf(q)} {
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() && v.Field(i).IsZero() {
				t.Errorf("%s.%s is not pinned by this test", v.Type().Name(), f.Name)
			}
		}
	}
}

// TestResidencyAPIPinned names the fields the removed resident-partition
// cache left behind, so removing one fails to compile: the budget is
// accepted and ignored, and the four counters stay zero. Like
// TestServiceAPIPinned it names them as literal keys only.
func TestResidencyAPIPinned(t *testing.T) {
	vol := NewMemVolume()
	meta, edges, err := GenerateRMAT(8, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := Store(vol, meta, edges); err != nil {
		t.Fatal(err)
	}
	base := EngineOptions{Root: 1, MemoryBudget: 4096, StreamBufSize: 256, Sim: DefaultSim()}
	opts := Options{Base: base, ResidencyBudget: 1 << 30} // Deprecated: ignored
	res, err := Run(context.Background(), EngineFastBFS, vol, meta.Name, opts)
	if err != nil {
		t.Fatal(err)
	}
	pinned := RunMetrics{ResidentParts: 1, ResidentBytes: 1, ResidentScans: 1, ResidentBytesSaved: 1} // Deprecated: always zero
	got, want := reflect.ValueOf(res.Metrics), reflect.ValueOf(pinned)
	for i := 0; i < want.NumField(); i++ {
		if name := want.Type().Field(i).Name; !want.Field(i).IsZero() && !got.Field(i).IsZero() {
			t.Errorf("RunMetrics.%s = %v, want 0", name, got.Field(i))
		}
	}
}

// TestDeprecatedKnobsIgnored names the engine options that stopped acting
// when α and β became constants, GracePeriod the grace period in both
// clocks and the stored codec every working file's, so removing one fails
// to compile: setting them, or the FASTBFS_CODEC variable that once set
// the working codec, changes no byte of the run's record. Like
// TestResidencyAPIPinned it names them as literal keys only.
func TestDeprecatedKnobsIgnored(t *testing.T) {
	vol := NewMemVolume()
	meta, edges, err := GenerateRMAT(9, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := Store(vol, meta, edges); err != nil {
		t.Fatal(err)
	}
	run := func(opts Options) *Result {
		opts.Base.Root, opts.Base.MemoryBudget, opts.Base.StreamBufSize = 1, 4096, 256
		opts.Base.Sim, opts.Base.Direction = DefaultSim(), "auto"
		res, err := Run(context.Background(), EngineFastBFS, vol, meta.Name, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(Options{})
	t.Setenv("FASTBFS_CODEC", "delta")
	got := run(Options{Base: EngineOptions{DirectionAlpha: 1, DirectionBeta: 1000, // Deprecated: ignored
		Codec: CodecDelta}, // Deprecated: ignored
		GraceWall: time.Nanosecond}) // Deprecated: ignored
	if want.Metrics.BottomUpIterations == 0 {
		t.Fatal("the run never went bottom-up: α and β went untested")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("deprecated knobs moved the run: %+v, want %+v", got.Metrics, want.Metrics)
	}
}
