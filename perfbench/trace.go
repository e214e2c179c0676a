package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records spans around the benchmark's calls into each layer.
// Spans stay in memory while the run measures and are written out as
// JSON lines once it ends. A nil *tracer records nothing, which is how
// the untraced run measures.
type tracer struct {
	origin time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

// span is one timed call. Req groups every span of one request (a
// round of a sweep workload, one HTTP request or fleet chunk); Parent
// is the span that caused it (0 for a root).
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Req     uint64 `json:"req"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// ref identifies an open span so children can name it as parent.
type ref struct {
	id, req uint64
}

// newReq allocates a request id.
func (t *tracer) newReq() uint64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// start opens a span under parent and returns its ref plus the
// function that closes it. The span belongs to request req, or to its
// parent's request when req is 0.
func (t *tracer) start(name string, parent ref, req uint64) (ref, func()) {
	if t == nil {
		return ref{}, func() {}
	}
	if req == 0 {
		req = parent.req
	}
	id := t.nextID.Add(1)
	begin := time.Since(t.origin)
	return ref{id: id, req: req}, func() {
		end := time.Since(t.origin)
		t.mu.Lock()
		t.spans = append(t.spans, span{
			ID: id, Parent: parent.id, Req: req, Name: name,
			StartUS: begin.Microseconds(), EndUS: end.Microseconds(),
		})
		t.mu.Unlock()
	}
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores every recorded span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}
