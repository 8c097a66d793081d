package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Its layer is the name up to
// the first dot. Parent links a span to the one that caused it (0 = none
// known); Job names the job or chunk it served.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Job    string `json:"job,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory while enabled; nothing is written until the
// run ends. Disabled, every hook reduces to one atomic load.
type tracer struct {
	enabled atomic.Bool
	epoch   time.Time
	ids     atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) on() bool { return t.enabled.Load() }

// newID reserves a span id, for a span whose children start before it ends.
func (t *tracer) newID() int64 { return t.ids.Add(1) }

// add records one finished span; id 0 draws a fresh one. It returns the id.
func (t *tracer) add(name string, id, parent int64, job string, start, end time.Time) int64 {
	if id == 0 {
		id = t.newID()
	}
	s := span{Name: name, ID: id, Parent: parent, Job: job,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations returns the durations of every span named name, in unit.
func durations(spans []span, name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/float64(unit))
		}
	}
	return out
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes sums each layer's self time: a span's duration minus the part
// of it its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[layerOf(s.Name)] += s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered returns how much of p's interval the union of kids covers.
func covered(p span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for i, x := range iv {
		if i == 0 || x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return time.Duration(total)
}

// runtimeSample is the runtime/metrics the traced run reports: GC, idle
// and total CPU, and heap bytes allocated.
type runtimeSample struct {
	gcCPU, idleCPU, totalCPU, allocBytes float64
}

func readRuntime() runtimeSample {
	ss := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(ss)
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindFloat64:
			return s.Value.Float64()
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		}
		return 0
	}
	return runtimeSample{gcCPU: val(ss[0]), idleCPU: val(ss[1]), totalCPU: val(ss[2]), allocBytes: val(ss[3])}
}

// writeTrace writes the run's spans, each layer's self time, the
// runtime/metrics snapshot and the per-layer metrics to path.
func writeTrace(path string, spans []span, layer map[string]metric) error {
	self := make(map[string]float64)
	for l, d := range selfTimes(spans) {
		self[l] = d.Seconds() * 1e3
	}
	all := metrics.All()
	ss := make([]metrics.Sample, len(all))
	for i, d := range all {
		ss[i].Name = d.Name
	}
	metrics.Read(ss)
	rt := make(map[string]any, len(ss))
	for _, s := range ss {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			rt[s.Name] = s.Value.Uint64()
		case metrics.KindFloat64:
			rt[s.Name] = s.Value.Float64()
		}
	}
	doc := map[string]any{
		"self_ms_by_layer": self,
		"per_layer":        layer,
		"runtime_metrics":  rt,
		"spans":            spans,
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// spanKey carries the causing span's id through a context, so the client
// transport can forward it to the server middleware as a header.
type spanKey struct{}

func withSpan(ctx context.Context, id int64) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanFrom(ctx context.Context) int64 {
	id, _ := ctx.Value(spanKey{}).(int64)
	return id
}
