package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public entry point. Spans of one operation share op_id;
// parent is the id of the span that caused this one (0 = none).
type span struct {
	ID     int     `json:"id"`
	Name   string  `json:"name"`
	Op     int     `json:"op_id"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
}

// spanRecorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the untraced run is the same code.
type spanRecorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// selfS is the time spent inside begin and end themselves: what
	// recording cost the traced run.
	selfS float64
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

// begin opens a span and returns its id for end and for children.
func (r *spanRecorder) begin(name string, op, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Name: name, Op: op, Parent: parent, Start: now})
	r.selfS += time.Since(r.t0).Seconds() - now
	return id
}

func (r *spanRecorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0).Seconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.selfS += time.Since(r.t0).Seconds() - now
	r.mu.Unlock()
}

// writeJSONL writes one span per line to path, creating its directory.
func (r *spanRecorder) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
