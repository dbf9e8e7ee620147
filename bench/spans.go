package main

import (
	"encoding/json"
	"io"
	"time"
)

// The benchmark's own trace: spans recorded in the benchmark's files,
// around its calls into the system (invocation -> workload -> round ->
// run, and suite -> case). They stay in memory and are written once, when
// the benchmark ends. The runner is sequential, so no locking.

type span struct {
	ID     int
	Parent int // 0 for the root
	Name   string
	Start  time.Duration // since the tracer's origin
	End    time.Duration
}

type tracer struct {
	runID  string
	origin time.Time
	spans  []span
}

func newTracer(runID string) *tracer {
	return &tracer{runID: runID, origin: time.Now()}
}

// begin opens a span under parent and returns its id.
func (t *tracer) begin(parent int, name string) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Start: time.Since(t.origin),
	})
	return len(t.spans)
}

func (t *tracer) end(id int) { t.spans[id-1].End = time.Since(t.origin) }

// depth is the number of ancestors of a span; it serves as the lane.
func (t *tracer) depth(id int) int {
	d := 0
	for p := t.spans[id-1].Parent; p != 0; p = t.spans[p-1].Parent {
		d++
	}
	return d
}

// writeChrome writes the spans in the Chrome Trace Event format
// (chrome://tracing, ui.perfetto.dev), one lane per nesting depth.
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`  // us
		Dur  float64        `json:"dur"` // us
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.Name, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: t.depth(s.ID),
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "run": t.runID},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events})
}
