package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// spanRec is one recorded span. Spans of one operation share Op; Parent is
// the index of the enclosing span, -1 for an operation's root.
type spanRec struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps a traced run's spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []spanRec
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span is a handle on an open span. The zero span belongs to no tracer and
// records nothing, so untraced code paths can use it unconditionally.
type span struct {
	t  *tracer
	id int
	op int
}

func (t *tracer) open(name string, parent, op int, start time.Time) span {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spanRec{Name: name, Start: int64(start.Sub(t.t0)), End: -1, Parent: parent, Op: op})
	return span{t: t, id: len(t.spans) - 1, op: op}
}

// root opens a new operation's root span now.
func (t *tracer) root(name string) span { return t.rootAt(name, time.Now()) }

// rootAt opens a new operation's root span that started at start.
func (t *tracer) rootAt(name string, start time.Time) span {
	t.mu.Lock()
	t.ops++
	op := t.ops
	t.mu.Unlock()
	return t.open(name, -1, op, start)
}

// child opens a span inside s now.
func (s span) child(name string) span {
	if s.t == nil {
		return s
	}
	return s.t.open(name, s.id, s.op, time.Now())
}

// record adds a finished span inside s.
func (s span) record(name string, start, end time.Time) span {
	if s.t == nil {
		return s
	}
	c := s.t.open(name, s.id, s.op, start)
	c.endAt(end)
	return c
}

func (s span) end() { s.endAt(time.Now()) }

func (s span) endAt(at time.Time) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	s.t.spans[s.id].End = int64(at.Sub(s.t.t0))
	s.t.mu.Unlock()
}

// selfTimes sums, per layer (the span name up to its first dot), each
// span's duration minus the part of it that its child spans cover.
func selfTimes(spans []spanRec) map[string]float64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]float64{}
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		ivs := make([][2]int64, 0, len(children[i]))
		for _, c := range children[i] {
			if cs := spans[c]; cs.End >= 0 {
				ivs = append(ivs, [2]int64{max(cs.Start, s.Start), min(cs.End, s.End)})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		covered, reach := int64(0), s.Start
		for _, iv := range ivs {
			lo := max(iv[0], reach)
			if iv[1] > lo {
				covered += iv[1] - lo
				reach = iv[1]
			}
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += float64(s.End-s.Start-covered) / float64(time.Millisecond)
	}
	return out
}

// writeTrace writes the run's spans and per-layer self times to
// <work>/traces/<workload>-seed<n>.json.
func (r *runner) writeTrace(prov map[string]any) error {
	dir := filepath.Join(r.cfg.work, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	r.tr.mu.Lock()
	spans := r.tr.spans
	r.tr.mu.Unlock()
	self := selfTimes(spans)
	b, err := json.Marshal(map[string]any{"provenance": prov, "self_ms": self, "spans": spans})
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", r.w.name, r.cfg.seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Fprintf(r.log, "stemsbench: %d spans written to %s; self time per layer:", len(spans), path)
	for _, l := range layers {
		fmt.Fprintf(r.log, " %s=%.1fms", l, self[l])
	}
	fmt.Fprintln(r.log)
	return nil
}
