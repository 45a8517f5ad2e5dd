package main

import (
	"fmt"

	"fastbfs/internal/obs"
)

// runTraced is the -trace 1 run. The timed phase runs twice over the
// same operations, first without and then with span recording, then
// the layer probes run on the workload's stored graph. It returns every
// per-layer metric.
func (e *env) runTraced(spec phaseSpec) (map[string]float64, error) {
	rec := e.rec
	// Each pass gets a quarter of the time: the probes need the rest.
	part := phaseSpec{seconds: spec.seconds / 4, minOps: (spec.minOps + 1) / 2, maxOps: spec.maxOps, warm: true}
	e.rec = nil
	plain := e.runPhase(part)
	e.rec = rec
	self0 := rec.selfS
	traced := e.runPhase(phaseSpec{minOps: len(plain.ops), maxOps: len(plain.ops)})
	selfTraced := rec.selfS - self0
	stats0, stats, ops := traced.svc0, traced.svc1, float64(len(traced.ops))

	p := &prober{e: e, vals: make(map[string]float64)}
	v := p.vals
	p.probeStream()
	p.probeRuntime()
	p.probeEngines()
	p.probeBatch()
	probeLat := p.probeServe()
	if p.err != nil {
		return nil, p.err
	}
	if !e.wl.Serve {
		// An ooc workload has no service of its own: its serve.* counters
		// cover the probe's engine-running requests.
		stats, ops = e.svc.Stats(), float64(len(probeLat))*2+1
	}

	v["gen.rmat_norm_s"], v["graph.store_norm_s"], v["serve.open_norm_s"] = e.genS, e.storeS, e.openS

	var io struct{ r, w, rops, wops float64 }
	var proc procSnap
	var cpuNorm, tracedWall float64
	for _, r := range traced.rounds {
		tracedWall += r.wallS
		io.r += float64(r.io.BytesRead)
		io.w += float64(r.io.BytesWritten)
		io.rops += float64(r.io.ReadOps)
		io.wops += float64(r.io.WriteOps)
		proc.add(r.proc)
		cpuNorm += normalise(r.proc.cpuS, r.cal0, r.cal1)
	}
	n := float64(len(traced.ops))
	v["storage.read_ops_per_query"] = io.rops / n
	v["storage.write_ops_per_query"] = io.wops / n
	v["storage.bytes_read_per_query"] = io.r / n
	v["storage.bytes_written_per_query"] = io.w / n
	v["proc.cpu_norm_s_per_query"] = cpuNorm / n
	v["proc.mallocs_per_query"] = float64(proc.mallocs) / n
	v["proc.gc_cycles_per_query"] = float64(proc.numGC) / n
	v["proc.gc_pause_ms_per_query"] = float64(proc.pauseNs) / 1e6 / n
	v["proc.leaked_files"] = float64(len(e.leakedFiles()))

	v["serve.batch_width_mean"] = 0
	if runs := stats.BatchRuns - stats0.BatchRuns; runs > 0 {
		v["serve.batch_width_mean"] = float64(stats.BatchQueries-stats0.BatchQueries) / float64(runs)
	}
	v["serve.batch_solo"] = float64(stats.BatchSolo - stats0.BatchSolo)
	v["serve.rejected"] = float64(stats.Rejected - stats0.Rejected)
	v["serve.shed"] = float64(stats.Shed - stats0.Shed)
	v["serve.device_bytes_per_query"] = float64(stats.DeviceBytes-stats0.DeviceBytes) / ops
	tel := e.svc.Telemetry()
	v["serve.wait_s.p50"] = histQuantile(tel, obs.HistServeWait, 0.5)
	v["serve.exec_s.p50"] = histQuantile(tel, obs.HistServeExec, 0.5)
	lat := probeLat
	if e.wl.Serve {
		lat = traced.normLatencies()
	}
	v["serve.latency_norm_s.p90"] = percentile(lat, 0.9)

	v["bench.cal_s.p50"] = median(e.cals)
	v["bench.cal_s.iqr_share"] = iqrShare(e.cals)
	// The overhead is what recording cost: the time spent inside the
	// recorder during the traced pass over that pass's operation time.
	// The difference between the two passes' latencies is printed too,
	// but 16 operations cannot resolve it: it reads ±10% on unchanged code.
	v["bench.trace_overhead_share"] = selfTraced / tracedWall
	ratios := make([]float64, len(traced.ops))
	for i := range ratios {
		ratios[i] = traced.ops[i].normS / plain.ops[i].normS // same operation in both passes
	}
	e.notes = append(e.notes, fmt.Sprintf("traced pass vs untraced pass, median of per-operation latency ratios: %+.1f%% (n=%d: too few to resolve it, it reads ±10%% on unchanged code)", 100*(median(ratios)-1), len(ratios)))
	return v, nil
}
