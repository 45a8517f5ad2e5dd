package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"fastbfs/internal/graph"
)

// queryReply is the subset of the service's POST /query answer the
// benchmark reads.
type queryReply struct {
	Visited uint64   `json:"visited"`
	Cached  bool     `json:"cached"`
	Batched bool     `json:"batched"`
	Levels  []uint32 `json:"levels"`
	Parents []uint32 `json:"parents"`
}

// startServer puts the service behind an HTTP listener on loopback.
func (e *env) startServer() {
	e.srv = httptest.NewServer(e.svc.Handler())
	e.client = e.srv.Client()
}

// post sends one query and returns the wall time up to the last byte of
// the answer, and the raw body.
func (e *env) post(body string) (wallS float64, status int, reply []byte, err error) {
	t0 := time.Now()
	resp, err := e.client.Post(e.srv.URL+"/query", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		return time.Since(t0).Seconds(), 0, nil, err
	}
	reply, err = io.ReadAll(resp.Body)
	wallS = time.Since(t0).Seconds()
	resp.Body.Close()
	return wallS, resp.StatusCode, reply, err
}

// request is one timed HTTP query: no_cache, summary answer only,
// checked on status and visited count.
func (e *env) request(opID, parent int, ref *refBFS) (wallS float64, err error) {
	sp := e.rec.begin("http.POST /query", opID, parent)
	wallS, status, body, err := e.post(fmt.Sprintf(`{"root":%d,"no_cache":true}`, ref.root))
	e.rec.end(sp)
	if err != nil {
		return wallS, err
	}
	if status != http.StatusOK {
		return wallS, fmt.Errorf("root %d: status %d: %s", ref.root, status, bytes.TrimSpace(body))
	}
	var qr queryReply
	if err := json.Unmarshal(body, &qr); err != nil {
		return wallS, err
	}
	if qr.Visited != ref.visited || qr.Cached {
		return wallS, fmt.Errorf("root %d: visited %d cached %v, reference visited %d", ref.root, qr.Visited, qr.Cached, ref.visited)
	}
	return wallS, nil
}

// barrier is a reusable rendezvous of n goroutines.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	waiting int
	round   int
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// wait blocks until all n goroutines have called it.
func (b *barrier) wait() {
	b.mu.Lock()
	defer b.mu.Unlock()
	round := b.round
	b.waiting++
	if b.waiting == b.n {
		b.waiting = 0
		b.round++
		b.cond.Broadcast()
		return
	}
	for round == b.round {
		b.cond.Wait()
	}
}

// clientRoots is client c's private slice of the reference roots, so
// concurrent requests never share a root.
func (e *env) clientRoots(c int) []refBFS {
	per := len(e.refs) / e.wl.Clients
	return e.refs[c*per : (c+1)*per]
}

// serveRound runs count requests on every client concurrently, each
// client walking its roots from index first, and returns the
// per-request wall latencies (grouped by client) with their roots.
func (e *env) serveRound(round, first, count int) (wallS float64, lat [][]float64, refs [][]*refBFS) {
	lat = make([][]float64, e.wl.Clients)
	refs = make([][]*refBFS, e.wl.Clients)
	bad := make([]int, e.wl.Clients)
	firstErr := make([]error, e.wl.Clients)
	roundSpan := e.rec.begin("serve.round", round, 0)
	var wg sync.WaitGroup
	var together *barrier
	if e.wl.Lockstep {
		together = newBarrier(e.wl.Clients)
	}
	t0 := time.Now()
	for c := 0; c < e.wl.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			roots := e.clientRoots(c)
			for k := 0; k < count; k++ {
				// A negative index (warm-up) counts back from the end.
				ref := &roots[((first+k)%len(roots)+len(roots))%len(roots)]
				if together != nil {
					together.wait()
				}
				w, err := e.request((first+k)*e.wl.Clients+c, roundSpan, ref)
				if err != nil {
					bad[c]++
					if firstErr[c] == nil {
						firstErr[c] = err
					}
				}
				lat[c] = append(lat[c], w)
				refs[c] = append(refs[c], ref)
			}
		}(c)
	}
	wg.Wait()
	wallS = time.Since(t0).Seconds()
	e.rec.end(roundSpan)
	for c := range bad {
		e.attempted += count
		if bad[c] > 0 {
			e.failed += bad[c]
			e.wrong += bad[c]
			if len(e.failures) < 8 {
				e.failures = append(e.failures, fmt.Sprintf("round %d client %d: %d of %d requests failed or answered wrong, first: %v", round, c, bad[c], count, firstErr[c]))
			}
		}
	}
	return wallS, lat, refs
}

// runServe is the timed phase of a serve workload: closed-loop clients
// in rounds of RoundOps requests each, a calibration between rounds.
func (e *env) runServe(spec phaseSpec) *phase {
	if e.srv == nil {
		e.startServer()
	}
	if spec.warm {
		e.serveRound(-1, -warmupOps, warmupOps)
	}
	p := &phase{rssReset: resetPeakRSS(), svc0: e.svc.Stats()}
	start := time.Now()
	cal := e.calibrate()
	perRound := e.wl.RoundOps * e.wl.Clients
	for round := 0; !spec.done(round*perRound, start); round++ {
		io0, proc0 := e.vol.Stats(), readProc()
		wall, lat, refs := e.serveRound(round, round*e.wl.RoundOps, e.wl.RoundOps)
		proc, io := readProc().sub(proc0), e.vol.Stats().Sub(io0)
		next := e.calibrate()
		for c := range lat {
			for k, w := range lat[c] {
				p.ops = append(p.ops, opSample{normS: normalise(w, cal, next), edges: refs[c][k].edges})
			}
		}
		p.rounds = append(p.rounds, roundSample{wallS: wall, cal0: cal, cal1: next, ops: perRound, io: io, proc: proc})
		cal = next
	}
	p.peakRSS, p.svc1 = peakRSSMiB(), e.svc.Stats()
	e.checkFullAnswers()
	leaked := e.leakedFiles()
	e.check(len(leaked) == 0, "working files left on the volume: %v", leaked)
	return p
}

// checkFullAnswers re-fetches one root per client with include_values,
// outside the timed loop, and validates levels and parents in full.
func (e *env) checkFullAnswers() {
	for c := 0; c < e.wl.Clients; c++ {
		ref := &e.clientRoots(c)[0]
		e.attempted++
		_, status, body, err := e.post(fmt.Sprintf(`{"root":%d,"no_cache":true,"include_values":true}`, ref.root))
		var qr queryReply
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
		}
		if err == nil {
			err = json.Unmarshal(body, &qr)
		}
		if err != nil {
			e.fail("full answer for root %d: %v", ref.root, err)
			continue
		}
		parents := make([]graph.VertexID, len(qr.Parents))
		for i, p := range qr.Parents {
			parents[i] = graph.VertexID(p)
		}
		if err := e.checkTree(ref, qr.Levels, parents, qr.Visited); err != nil {
			e.wrong++
			e.fail("full answer: %v", err)
		}
	}
}
