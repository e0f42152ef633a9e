package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval of the traced ladder. The root span covers
// the workload, its children are the rungs, and a rung's children are its
// bursts of burstOps calls into one layer's exported function. Spans are
// recorded from here, outside the stack, and kept in memory until the
// run ends.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for the root
	Layer    string `json:"layer"`
	Fn       string `json:"fn"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Ops      int64  `json:"ops"`
}

// burstOps is the number of calls one burst span covers.
const burstOps = 64

// burstSpanCap bounds the burst spans kept per rung; a rung's own span
// still carries the totals of every burst it ran.
const burstSpanCap = 512

type tracer struct {
	workload string
	base     time.Time
	spans    []span
}

func newTracer(workload string) *tracer {
	t := &tracer{workload: workload, base: time.Now()}
	t.spans = append(t.spans, span{ID: 0, Parent: -1, Layer: "bench", Fn: "ladder", Workload: workload})
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// open starts a child span of parent and returns its id.
func (t *tracer) open(parent int, layer, fn string) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer, Fn: fn, Workload: t.workload, StartNS: t.now()})
	return id
}

func (t *tracer) close(id int, ops int64) {
	t.spans[id].EndNS = t.now()
	t.spans[id].Ops = ops
}

// burst records a completed burst under a rung span.
func (t *tracer) burst(rung int, start, end, ops int64) {
	r := t.spans[rung]
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: rung, Layer: r.Layer, Fn: r.Fn, Workload: t.workload,
		StartNS: start, EndNS: end, Ops: ops,
	})
}

// write closes the root span and stores every span as one JSON file.
func (t *tracer) write(dir string) (string, error) {
	var ops int64
	for _, s := range t.spans[1:] {
		if s.Parent == 0 {
			ops += s.Ops
		}
	}
	t.close(0, ops)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+t.workload+".json")
	buf, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, buf, 0o644)
}
