package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// tracer records spans around the benchmark's own calls into each layer:
// name, start, end, the span that caused it, and the job it belongs to.
// Spans stay in memory and are written out when the run ends. A nil
// *tracer records nothing, so untraced units run the same code.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	spans    []span
	counters map[string]float64
}

type span struct {
	ID     int     `json:"id"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"` // -1 for a root span
	Job    string  `json:"job"`
}

// layerSummary is one layer's share of a traced unit. Busy time sums the
// layer's spans; self time subtracts the part of each span its child spans
// cover. Under parallelism spans overlap, so busy time can exceed the
// unit's wall time; BusyExceedsWall says when it does.
type layerSummary struct {
	Layer           string  `json:"layer"`
	Calls           int     `json:"calls"`
	BusyS           float64 `json:"busy_s"`
	SelfS           float64 `json:"self_s"`
	BusyExceedsWall bool    `json:"busy_exceeds_wall"`
	Setup           bool    `json:"setup"`
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counters: map[string]float64{}}
}

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int, job string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Name: name, Start: now, End: -1, Parent: parent, Job: job})
	return len(t.spans) - 1
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add accumulates a counter measured at a layer boundary.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counters[name] += v
	t.mu.Unlock()
}

// layerMetrics returns each layer's busy time as "<layer>_s" plus every
// counter.
func (t *tracer) layerMetrics(wall float64) map[string]float64 {
	out := map[string]float64{}
	if t == nil {
		return out
	}
	for _, l := range t.summary(wall) {
		out[l.Layer+"_s"] = l.BusyS
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for k, v := range t.counters {
		out[k] += v
	}
	return out
}

// summary aggregates the spans per layer name, sorted by busy time.
func (t *tracer) summary(wall float64) []layerSummary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	by := map[string]*layerSummary{}
	for _, s := range spans {
		l := by[s.Name]
		if l == nil {
			l = &layerSummary{Layer: s.Name, Setup: wall == 0}
			by[s.Name] = l
		}
		d := s.End - s.Start
		l.Calls++
		l.BusyS += d
		l.SelfS += d - covered(s, children[s.ID])
	}
	out := make([]layerSummary, 0, len(by))
	for _, l := range by {
		l.BusyExceedsWall = wall > 0 && l.BusyS > wall
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].BusyS != out[j].BusyS {
			return out[i].BusyS > out[j].BusyS
		}
		return out[i].Layer < out[j].Layer
	})
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent span.
func covered(p span, kids []span) float64 {
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB float64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// dump writes the spans of the traced unit and of the traced set-up.
func (t *tracer) dump(dir, name string, setup *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := struct {
		Spans      []span             `json:"spans"`
		SetupSpans []span             `json:"setup_spans"`
		Counters   map[string]float64 `json:"counters"`
	}{t.spans, setup.spans, t.counters}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}
