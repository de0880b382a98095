package promtext

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds metric families, each declared exactly once, and gathers
// them into the Family model that Write (Prometheus text) and WriteJSON
// render. Declaring a name twice, or addressing a labelled family with the
// wrong number of label values, is a programming error and panics.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

type family struct {
	name, help, typ string
	collect         func() []Sample
}

// Default is the process-wide registry: library counters (plan cache,
// optimizer, vectorizer, index subsystem, auto strategy) are declared on it
// by the package that increments them.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{fams: map[string]*family{}} }

func (r *Registry) register(name, help, typ string, collect func() []Sample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.fams[name]; dup {
		panic(fmt.Sprintf("promtext: family %s declared twice", name))
	}
	r.fams[name] = &family{name: name, help: help, typ: typ, collect: collect}
}

// Gather snapshots every family, ordered by name. Collectors run outside the
// registry lock, so a GaugeFunc may take its own locks.
func (r *Registry) Gather() []Family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	out := make([]Family, len(fams))
	for i, f := range fams {
		out[i] = Family{Name: f.name, Help: f.help, Type: f.typ, Samples: f.collect()}
	}
	return out
}

// Counter is one int64 series. Every update is a single lock-free atomic
// operation with no allocation, so counters can sit on hot paths.
type Counter struct{ n atomic.Int64 }

// Add adds n.
func (c *Counter) Add(n int64) { c.n.Add(n) }

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Set replaces the value; only gauge families use it.
func (c *Counter) Set(n int64) { c.n.Store(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.n.Load() }

// Counter declares an unlabelled counter family.
func (r *Registry) Counter(name, help string) *Counter {
	c := new(Counter)
	r.register(name, help, "counter", func() []Sample {
		return []Sample{{Value: float64(c.Load())}}
	})
	return c
}

// GaugeFunc declares an unlabelled gauge family whose value fn computes at
// gather time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, "gauge", func() []Sample { return []Sample{{Value: fn()}} })
}

// CounterVec is a family of Counters keyed by label values; a series appears
// on first use. Stored integers render divided by the family's per (stored
// units per rendered unit), which keeps nanoseconds exact as seconds.
type CounterVec struct {
	set *seriesSet[Counter]
	per float64
}

// CounterVec declares a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return r.counterVec(name, help, "counter", 1, labels)
}

// DurationVec declares a labelled family of durations: series hold
// nanoseconds (Add or Set an int64(time.Duration)) and render in seconds. typ
// is "counter" for accumulated time or "gauge" for a last observed time.
func (r *Registry) DurationVec(name, help, typ string, labels ...string) *CounterVec {
	if typ != "counter" && typ != "gauge" {
		panic(fmt.Sprintf("promtext: family %s: duration type %q", name, typ))
	}
	return r.counterVec(name, help, typ, 1e9, labels)
}

func (r *Registry) counterVec(name, help, typ string, per float64, labels []string) *CounterVec {
	v := &CounterVec{set: newSeriesSet(name, labels, func() *Counter { return new(Counter) }), per: per}
	r.register(name, help, typ, func() []Sample {
		var out []Sample
		v.set.each(func(ls []Label, c *Counter) {
			out = append(out, Sample{Labels: ls, Value: float64(c.Load()) / v.per})
		})
		return out
	})
	return v
}

// With returns the series for the label values, in declaration order.
func (v *CounterVec) With(values ...string) *Counter { return v.set.with(values) }

// Histogram is one fixed-bucket histogram series.
type Histogram struct {
	mu       sync.Mutex
	bounds   []float64
	counts   []int64 // counts[i]: observations in (bounds[i-1], bounds[i]]
	overflow int64   // observations above the last bound
	sum      float64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.mu.Lock()
	if i < len(h.bounds) {
		h.counts[i]++
	} else {
		h.overflow++
	}
	h.sum += v
	h.mu.Unlock()
}

// HistogramVec is a family of Histograms keyed by label values.
type HistogramVec struct{ set *seriesSet[Histogram] }

// Histogram declares a labelled histogram family with fixed, ascending
// bucket upper bounds; observations above the last land only in +Inf.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("promtext: family %s: bucket bounds not ascending", name))
	}
	v := &HistogramVec{set: newSeriesSet(name, labels, func() *Histogram {
		return &Histogram{bounds: bounds, counts: make([]int64, len(bounds))}
	})}
	r.register(name, help, "histogram", func() []Sample {
		var out []Sample
		v.set.each(func(ls []Label, h *Histogram) {
			h.mu.Lock()
			counts, overflow, sum := append([]int64(nil), h.counts...), h.overflow, h.sum
			h.mu.Unlock()
			out = append(out, HistogramSamples(ls, bounds, counts, overflow, sum)...)
		})
		return out
	})
	return v
}

// With returns the series for the label values, in declaration order.
func (v *HistogramVec) With(values ...string) *Histogram { return v.set.with(values) }

// seriesSet maps label values to lazily created series of one family.
type seriesSet[T any] struct {
	name   string
	labels []string
	fresh  func() *T
	mu     sync.RWMutex
	m      map[string]*series[T]
}

type series[T any] struct {
	key    string
	labels []Label
	v      *T
}

func newSeriesSet[T any](name string, labels []string, fresh func() *T) *seriesSet[T] {
	return &seriesSet[T]{name: name, labels: labels, fresh: fresh, m: map[string]*series[T]{}}
}

func (s *seriesSet[T]) with(values []string) *T {
	if len(values) != len(s.labels) {
		panic(fmt.Sprintf("promtext: family %s takes %d label values, got %d", s.name, len(s.labels), len(values)))
	}
	key := strings.Join(values, "\xff") // 0xff never occurs in UTF-8 text
	s.mu.RLock()
	e := s.m[key]
	s.mu.RUnlock()
	if e == nil {
		s.mu.Lock()
		if e = s.m[key]; e == nil {
			e = &series[T]{key: key, labels: make([]Label, len(values)), v: s.fresh()}
			for i, n := range s.labels {
				e.labels[i] = Label{Name: n, Value: values[i]}
			}
			s.m[key] = e
		}
		s.mu.Unlock()
	}
	return e.v
}

// each visits the series ordered by label values.
func (s *seriesSet[T]) each(fn func([]Label, *T)) {
	s.mu.RLock()
	all := make([]*series[T], 0, len(s.m))
	for _, e := range s.m {
		all = append(all, e)
	}
	s.mu.RUnlock()
	sort.Slice(all, func(i, j int) bool { return all[i].key < all[j].key })
	for _, e := range all {
		fn(e.labels, e.v)
	}
}

// WriteJSON renders families as one JSON object keyed by family name, by a
// fixed rule: an unlabelled series is a number; a labelled family is an
// object keyed by its first label's values, nesting one level per further
// label; a histogram series is {"buckets": {le: cumulative count}, "sum",
// "count"}.
func WriteJSON(w io.Writer, fams []Family) error {
	doc := make(map[string]any, len(fams))
	for _, f := range fams {
		root := map[string]any{}
		doc[f.Name] = root
		for _, s := range f.Samples {
			path := make([]string, 0, len(s.Labels)+1)
			for _, l := range s.Labels {
				path = append(path, l.Value)
			}
			switch s.Suffix {
			case "_bucket": // le, always the last label, keys the bucket
				path = append(path[:len(path)-1], "buckets", path[len(path)-1])
			case "_sum", "_count":
				path = append(path, s.Suffix[1:])
			}
			if len(path) == 0 {
				doc[f.Name] = s.Value
				continue
			}
			node := root
			for _, p := range path[:len(path)-1] {
				next, ok := node[p].(map[string]any)
				if !ok {
					next = map[string]any{}
					node[p] = next
				}
				node = next
			}
			node[path[len(path)-1]] = s.Value
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
