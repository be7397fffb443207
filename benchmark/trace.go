package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer of the program, recorded by the
// benchmark around a public function. Spans of one operation (a spec, a
// request) share Op; Parent is the span that caused this one (0 = root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Op     string `json:"op"`
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so workloads call it
// unconditionally and end-to-end runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name, op string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Op: op, Start: now, End: -1})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name, op string, parent int, fn func(id int)) {
	id := t.begin(name, op, parent)
	fn(id)
	t.end(id)
}

// closed returns a copy of the finished spans.
func (t *tracer) closed() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.closed())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// layerTime is the total and self time of every span with one name.
type layerTime struct {
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes folds spans by name. A span's self time is its duration
// minus the part of its interval that its children cover; children that
// overlap each other (concurrent requests under one parent) are counted
// once, and a child running past its parent is clipped to it.
func selfTimes(spans []span) map[string]layerTime {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]layerTime)
	for _, s := range spans {
		dur := s.End - s.Start
		covered := coveredWithin(kids[s.ID], s.Start, s.End)
		lt := out[s.Name]
		lt.Count++
		lt.Total += time.Duration(dur)
		lt.Self += time.Duration(dur - covered)
		out[s.Name] = lt
	}
	return out
}

// coveredWithin returns the length of the union of the intervals,
// clipped to [lo, hi].
func coveredWithin(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	c := make([][2]int64, 0, len(iv))
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b > a {
			c = append(c, [2]int64{a, b})
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i][0] < c[j][0] })
	var total, curA, curB int64
	for i, x := range c {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
			continue
		}
		curB = max(curB, x[1])
	}
	return total + curB - curA
}
