package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call from the benchmark into a layer, or one
// /metrics scrape window. Spans are kept in memory and written out when
// the run ends.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 = root
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // since the run began
	Dur    float64 `json:"dur_s"`
	Events uint64  `json:"events,omitempty"`
}

// spans records the benchmark's spans. A nil *spans records nothing, so
// untraced runs pay no bookkeeping.
type spans struct {
	t0   time.Time
	list []span
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// begin opens a span under parent and returns its id; end closes it.
func (s *spans) begin(name string, parent int) int {
	if s == nil {
		return 0
	}
	s.list = append(s.list, span{ID: len(s.list) + 1, Parent: parent, Name: name,
		Start: time.Since(s.t0).Seconds()})
	return len(s.list)
}

func (s *spans) end(id int, events uint64) {
	if s == nil || id == 0 {
		return
	}
	sp := &s.list[id-1]
	sp.Dur = time.Since(s.t0).Seconds() - sp.Start
	sp.Events = events
}

// self returns each span name's total self time: its duration minus the
// part its children cover.
func (s *spans) self() map[string]float64 {
	child := make([]float64, len(s.list)+1)
	for _, sp := range s.list {
		child[sp.Parent] += sp.Dur
	}
	out := make(map[string]float64)
	for _, sp := range s.list {
		out[sp.Name] += sp.Dur - child[sp.ID]
	}
	return out
}

// write saves the spans and their self times as JSON.
func (s *spans) write(path string, record any) error {
	b, err := json.MarshalIndent(map[string]any{
		"record": record,
		"spans":  s.list,
		"self_s": s.self(),
	}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
