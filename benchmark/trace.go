package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval at a layer boundary. Spans of one operation
// (one library call sequence, one HTTP request) share Op; Parent is the ID
// of the span that caused this one, 0 for a root. Start and End are
// nanoseconds since the tracer was made.
type Span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// Tracer keeps spans in memory until the run ends. Every span is recorded
// after the fact from two clock readings the driver took around a call into
// a layer, so a nil *Tracer — the untraced run — costs one nil check.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
	ops   int32
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// NewOp returns a fresh operation id.
func (t *Tracer) NewOp() int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// Add records a span and returns its id for use as a parent.
func (t *Tracer) Add(parent, op int32, name string, start, end time.Time) int32 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Op: op, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return id
}

// AddSeq lays consecutive children of the given durations under parent,
// starting at start: how core.Stats' stage times, which core measures one
// after another on the calling goroutine, become child spans.
func (t *Tracer) AddSeq(parent, op int32, start time.Time, names []string, durs []time.Duration) {
	if t == nil {
		return
	}
	for i, d := range durs {
		if d <= 0 {
			continue
		}
		t.Add(parent, op, names[i], start, start.Add(d))
		start = start.Add(d)
	}
}

// childCover returns, per span id, the length of the part of the span's
// interval that its children cover (overlapping children counted once).
func childCover(spans []Span) map[int32]int64 {
	kids := map[int32][][2]int64{}
	byID := map[int32]Span{}
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	cover := map[int32]int64{}
	for id, iv := range kids {
		p := byID[id]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		var total int64
		cur := p.Start
		for _, k := range iv {
			lo, hi := max(k[0], cur), min(k[1], p.End)
			if hi > lo {
				total += hi - lo
				cur = hi
			}
		}
		cover[id] = total
	}
	return cover
}

// selfTimes sums, per span name, duration minus child coverage.
func selfTimes(spans []Span) map[string]time.Duration {
	cover := childCover(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - cover[s.ID])
	}
	return out
}

// coverFrac is the share of the named spans' total time their children
// cover: how much of what the client observed the trace attributes.
func coverFrac(spans []Span, name string) float64 {
	cover := childCover(spans)
	var dur, cov int64
	for _, s := range spans {
		if s.Name == name {
			dur += s.End - s.Start
			cov += cover[s.ID]
		}
	}
	return frac(float64(cov), float64(dur))
}

// write stores the spans and their per-name self times under
// benchmark/out/, relative to the checkout the run started in.
func (t *Tracer) write(workload string) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := map[string]float64{}
	for name, d := range selfTimes(t.spans) {
		self[name] = float64(d) / 1e6
	}
	doc := struct {
		Workload string             `json:"workload"`
		SelfMs   map[string]float64 `json:"self_ms"`
		Spans    []Span             `json:"spans"`
	}{workload, self, t.spans}
	path := filepath.Join("benchmark", "out", "trace-"+workload+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	buf, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, buf, 0o644)
}
