package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function. Spans of one operation share Op; Parent is the id of the
// enclosing span (0 for the operation's root). Times are nanoseconds since
// the tracer started.
type span struct {
	Op     int64  `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// opRecord is a finished operation: its spans plus the per-stage wall times
// the engine reported for the calls under its runner span (the engine's
// stages are not visible as calls from outside, so they carry no start).
type opRecord struct {
	Kind   string           `json:"kind"`
	Spans  []span           `json:"spans"`
	Stages map[string]int64 `json:"stage_ns,omitempty"`
}

// tracer keeps every traced operation in memory until the run ends. A nil
// tracer records nothing.
type tracer struct {
	epoch time.Time
	next  atomic.Int64
	mu    sync.Mutex
	ops   []opRecord
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// opTrace records the spans of one operation on one goroutine. All methods
// are no-ops on a nil receiver, which is what an untraced run passes around.
type opTrace struct {
	t      *tracer
	rec    opRecord
	open   []int // stack of open span indexes
	stages map[string]time.Duration
}

func (t *tracer) begin(kind string) *opTrace {
	if t == nil {
		return nil
	}
	o := &opTrace{t: t, rec: opRecord{Kind: kind}}
	o.rec.Spans = make([]span, 0, 8)
	o.enter("op." + kind)
	o.rec.Spans[0].Op = t.next.Add(1)
	return o
}

// enter opens a child span of the innermost open span.
func (o *opTrace) enter(name string) {
	if o == nil {
		return
	}
	parent := 0
	if len(o.open) > 0 {
		parent = o.rec.Spans[o.open[len(o.open)-1]].ID
	}
	id := len(o.rec.Spans) + 1
	o.rec.Spans = append(o.rec.Spans, span{
		ID: id, Parent: parent, Name: name, Start: int64(time.Since(o.t.epoch)),
	})
	o.open = append(o.open, len(o.rec.Spans)-1)
}

// exit closes the innermost open span.
func (o *opTrace) exit() {
	if o == nil {
		return
	}
	i := o.open[len(o.open)-1]
	o.open = o.open[:len(o.open)-1]
	o.rec.Spans[i].End = int64(time.Since(o.t.epoch))
}

// engineStages attributes the engine's stage wall times to the innermost
// open span (a runner call).
func (o *opTrace) engineStages(walls map[string]time.Duration) {
	if o == nil {
		return
	}
	if o.stages == nil {
		o.stages = map[string]time.Duration{}
	}
	for k, d := range walls {
		o.stages[k] += d
	}
}

// finish closes the root span and files the operation.
func (o *opTrace) finish() {
	if o == nil {
		return
	}
	for len(o.open) > 0 {
		o.exit()
	}
	id := o.rec.Spans[0].Op
	for i := range o.rec.Spans {
		o.rec.Spans[i].Op = id
	}
	if len(o.stages) > 0 {
		o.rec.Stages = make(map[string]int64, len(o.stages))
		for k, d := range o.stages {
			o.rec.Stages[k] = int64(d)
		}
	}
	o.t.mu.Lock()
	o.t.ops = append(o.t.ops, o.rec)
	o.t.mu.Unlock()
}

// layerOf maps a span name ("session.prepare", "op.lookup") to its layer.
func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// selfTimes computes one operation's self time per layer: each span's
// duration minus what its child spans cover. The engine's stage walls are
// the dataflow layer's share of the runner span they ran under. The root
// span's self time is the benchmark's own and is returned apart.
func selfTimes(rec opRecord) (layers map[string]time.Duration, wall, harness time.Duration) {
	layers = map[string]time.Duration{}
	children := map[int]time.Duration{}
	for _, s := range rec.Spans {
		if s.Parent != 0 {
			children[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	var stageSum time.Duration
	for _, d := range rec.Stages {
		stageSum += time.Duration(d)
	}
	for _, s := range rec.Spans {
		d := time.Duration(s.End - s.Start)
		self := d - children[s.ID]
		if s.Parent == 0 {
			wall, harness = d, self
			continue
		}
		if layerOf(s.Name) == "runner" && stageSum > 0 {
			df := min(stageSum, self)
			layers["dataflow"] += df
			self -= df
			stageSum = 0
		}
		layers[layerOf(s.Name)] += self
	}
	return layers, wall, harness
}

// summarize reports the trace's per-operation checks: the median ratio of
// summed layer self times to wall time, and the share of operations where
// that sum is within 10% of the wall time.
func (t *tracer) summarize(m metricSet) {
	var ratios []float64
	within := 0
	for _, rec := range t.ops {
		layers, wall, _ := selfTimes(rec)
		var sum time.Duration
		for _, d := range layers {
			sum += d
		}
		r := ratio(float64(sum), float64(wall))
		ratios = append(ratios, r)
		if r >= 0.9 && r <= 1.1 {
			within++
		}
	}
	m.set("trace.layer_sum_ratio_p50", median(ratios))
	m.set("trace.ops_within_10pct", ratio(float64(within), float64(len(t.ops))))
}

// layerTotals sums self time per layer over every traced operation.
func (t *tracer) layerTotals() map[string]time.Duration {
	tot := map[string]time.Duration{}
	for _, rec := range t.ops {
		layers, _, harness := selfTimes(rec)
		for l, d := range layers {
			tot[l] += d
		}
		tot["harness"] += harness
	}
	return tot
}

// write saves the spans, one operation per line, under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, rec := range t.ops {
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// report renders the layer self-time split as text.
func (t *tracer) report() string {
	tot := t.layerTotals()
	var all time.Duration
	names := make([]string, 0, len(tot))
	for l, d := range tot {
		all += d
		names = append(names, l)
	}
	sort.Slice(names, func(i, j int) bool { return tot[names[i]] > tot[names[j]] })
	var b strings.Builder
	fmt.Fprintf(&b, "layer self time over %d traced operations:\n", len(t.ops))
	for _, l := range names {
		fmt.Fprintf(&b, "  %-10s %10.1f ms  %5.1f%%\n", l, ms(tot[l]), 100*ratio(float64(tot[l]), float64(all)))
	}
	return b.String()
}
