package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval of the traced run: a pass, a cell's
// Experiment.Run, an HTTP request or a layer probe. Times are
// nanoseconds since the tracer was created.
type span struct {
	ID     int64             `json:"id"`
	Parent int64             `json:"parent,omitempty"`
	Name   string            `json:"name"`
	Start  int64             `json:"start_ns"`
	End    int64             `json:"end_ns"`
	Tags   map[string]string `json:"tags,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a no-op, so the measured code
// paths are the same in both modes apart from the recording itself.
type tracer struct {
	epoch  time.Time
	lastID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID reserves a span ID, so a parent's ID can be handed to children
// before the parent has ended.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.lastID.Add(1)
}

// add records a finished span under a reserved ID (0 reserves one).
func (t *tracer) add(id, parent int64, name string, start, end time.Time, tags map[string]string) int64 {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.newID()
	}
	s := span{ID: id, Parent: parent, Name: name, Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(), Tags: tags}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// children returns the spans whose parent is id.
func (t *tracer) children(id int64) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// covered is how much of [lo, hi) the union of the spans covers.
// Overlapping spans (cells running on different workers at once) count
// once.
func covered(lo, hi int64, spans []span) int64 {
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		if open && x[0] <= curHi {
			curHi = max(curHi, x[1])
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = x[0], x[1], true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(parent span, children []span) int64 {
	return parent.dur() - covered(parent.Start, parent.End, children)
}

// busyShare is the summed child time within the parent over the
// parent's wall time times the worker count: 1 means every worker ran a
// child all the time.
func busyShare(parent span, children []span, workers int) float64 {
	var sum int64
	for _, c := range children {
		sum += max(0, min(c.End, parent.End)-max(c.Start, parent.Start))
	}
	return float64(sum) / (float64(parent.dur()) * float64(workers))
}

// underfilled is the wall time within the parent during which fewer
// children ran than there are workers.
func underfilled(parent span, children []span, workers int) time.Duration {
	type edge struct {
		at    int64
		delta int
	}
	edges := make([]edge, 0, 2*len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if a < b {
			edges = append(edges, edge{a, +1}, edge{b, -1})
		}
	}
	// Ends sort before starts at the same instant, so back-to-back
	// children on one worker never count as two running at once.
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta
	})
	var under int64
	running, at := 0, parent.Start
	for _, e := range edges {
		if running < workers {
			under += e.at - at
		}
		running += e.delta
		at = e.at
	}
	if running < workers {
		under += parent.End - at
	}
	return time.Duration(under)
}

// traceFile is the JSON document a traced run writes when it ends.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Workers  int    `json:"workers"`
	// SelfNS sums each span name's self time: its duration minus what
	// its children cover.
	SelfNS map[string]int64 `json:"self_ns"`
	// Summary holds the workload's own figures that are not metrics
	// (per-family time, serve tier counts, digests).
	Summary map[string]any `json:"summary,omitempty"`
	Spans   []span         `json:"spans"`
}

// write stores the spans and their self-time totals at path.
func (t *tracer) write(path, workload string, seed int64, workers int, summary map[string]any) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := map[string]int64{}
	for _, s := range spans {
		self[s.Name] += selfTime(s, kids[s.ID])
	}
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Workers: workers, SelfNS: self, Summary: summary, Spans: spans})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
