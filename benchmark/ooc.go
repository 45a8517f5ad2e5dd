package main

import (
	"context"
	"time"

	"fastbfs"
	"fastbfs/internal/core"
	"fastbfs/internal/serve"
	"fastbfs/internal/storage"
	"fastbfs/internal/xstream"
)

// opSample is one timed operation: an ooc query, or one HTTP request of
// a serve round.
type opSample struct {
	normS float64 // normalised latency
	edges int64   // edges the reference BFS traverses from its root
}

// roundSample is one calibration-bracketed interval: a single query for
// the ooc workloads, RoundOps requests per client for the serve ones.
// The counters are read at its edges, so calibration and validation
// work never lands in them.
type roundSample struct {
	wallS      float64
	cal0, cal1 float64
	ops        int
	io         storage.IOStats
	proc       procSnap
}

func (r *roundSample) normS() float64 { return normalise(r.wallS, r.cal0, r.cal1) }

// phase is the outcome of one timed phase.
type phase struct {
	ops    []opSample
	rounds []roundSample
	// peakRSS is VmHWM at the end of the phase; rssReset tells whether
	// the mark was restarted at its beginning.
	peakRSS  float64
	rssReset bool
	// svc0 and svc1 are the service's counters at the edges of the timed
	// loop of a serve workload.
	svc0, svc1 serve.Stats
}

func (p *phase) normLatencies() []float64 {
	out := make([]float64, len(p.ops))
	for i, o := range p.ops {
		out[i] = o.normS
	}
	return out
}

func (e *env) oocOptions(ref *refBFS) core.Options {
	return core.Options{Base: xstream.Options{
		Root:           ref.root,
		MemoryBudget:   e.wl.MemoryBudget,
		ScatterWorkers: e.wl.Workers,
		Direction:      e.wl.Direction,
	}}
}

// oocRun runs one query under the clock.
func (e *env) oocRun(opID int, ref *refBFS) (wallS float64, res *fastbfs.Result, err error) {
	sp := e.rec.begin("fastbfs.Run", opID, 0)
	t0 := time.Now()
	res, err = fastbfs.Run(context.Background(), fastbfs.EngineFastBFS, e.vol, e.meta.Name, e.oocOptions(ref))
	wallS = time.Since(t0).Seconds()
	e.rec.end(sp)
	return wallS, res, err
}

// oocCheck counts one query and validates its answer; a wrong answer is
// a failed operation. libValidate adds the library's own Graph500
// validator, which rebuilds a CSR on every call and is too slow to run
// after every timed query.
func (e *env) oocCheck(opID int, ref *refBFS, res *fastbfs.Result, err error, libValidate bool) {
	e.attempted++
	if err != nil {
		e.fail("op %d root %d: %v", opID, ref.root, err)
		return
	}
	if err := e.checkTree(ref, res.Levels, res.Parents, res.Visited); err != nil {
		e.wrong++
		e.fail("op %d: wrong answer: %v", opID, err)
		return
	}
	if libValidate {
		if err := fastbfs.ValidateBFS(e.meta, e.edges, ref.root, res); err != nil {
			e.wrong++
			e.fail("op %d root %d: ValidateBFS: %v", opID, ref.root, err)
		}
	}
}

// libValidateEvery is how often a timed query also goes through
// fastbfs.ValidateBFS (every warm-up query does).
const libValidateEvery = 16

// phaseSpec sizes one timed phase: it ends once seconds have passed and
// minOps operations are done, or at maxOps when that is positive.
type phaseSpec struct {
	seconds float64
	minOps  int
	maxOps  int
	warm    bool // run the warm-up operations first
}

func (s phaseSpec) done(ops int, start time.Time) bool {
	if s.maxOps > 0 && ops >= s.maxOps {
		return true
	}
	return ops >= s.minOps && time.Since(start).Seconds() >= s.seconds
}

// runOOC is the timed phase of an out-of-core workload: warm-up, then
// one query at a time, each between two calibrations.
func (e *env) runOOC(spec phaseSpec) *phase {
	n := len(e.refs)
	for i := 0; spec.warm && i < warmupOps; i++ {
		// Warm-up queries take roots from the end; the timed sequence
		// starts at root 0 on every run.
		ref := &e.refs[n-1-i]
		_, res, err := e.oocRun(-(i + 1), ref)
		e.oocCheck(-(i + 1), ref, res, err, true)
	}
	p := &phase{rssReset: resetPeakRSS()}
	start := time.Now()
	cal := e.calibrate()
	for i := 0; !spec.done(i, start); i++ {
		ref := &e.refs[i%n]
		io0, proc0 := e.vol.Stats(), readProc()
		wall, res, err := e.oocRun(i, ref)
		proc, io := readProc().sub(proc0), e.vol.Stats().Sub(io0)
		e.oocCheck(i, ref, res, err, i%libValidateEvery == libValidateEvery-1)
		next := e.calibrate()
		p.ops = append(p.ops, opSample{normS: normalise(wall, cal, next), edges: ref.edges})
		p.rounds = append(p.rounds, roundSample{wallS: wall, cal0: cal, cal1: next, ops: 1, io: io, proc: proc})
		cal = next
	}
	p.peakRSS = peakRSSMiB()
	leaked := e.leakedFiles()
	e.check(len(leaked) == 0, "working files left on the volume: %v", leaked)
	return p
}
