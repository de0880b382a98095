package promtext

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: did not panic", what)
		}
	}()
	fn()
}

func TestRegistryRejectsMisuse(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "A.")
	vec := r.CounterVec("b_total", "B.", "route", "stage")
	hist := r.Histogram("c_seconds", "C.", []float64{1, 2}, "route")

	mustPanic(t, "duplicate counter", func() { r.Counter("a_total", "A again.") })
	mustPanic(t, "duplicate across kinds", func() { r.GaugeFunc("b_total", "B.", func() float64 { return 0 }) })
	mustPanic(t, "too few label values", func() { vec.With("r") })
	mustPanic(t, "too many label values", func() { vec.With("r", "s", "x") })
	mustPanic(t, "histogram arity", func() { hist.With() })
	mustPanic(t, "duration type", func() { r.DurationVec("d_seconds", "D.", "histogram", "route") })
	mustPanic(t, "unsorted bounds", func() { r.Histogram("e_seconds", "E.", []float64{2, 1}) })
}

// populated declares one family of every kind and feeds each a few values.
func populated() *Registry {
	r := NewRegistry()
	r.Counter("reqs_total", "Requests.").Add(3)
	r.GaugeFunc("up_seconds", "Uptime.", func() float64 { return 12.5 })
	r.CounterVec("empty_total", "Declared, never used.", "reason")
	byRoute := r.CounterVec("route_total", "By route.", "route")
	byRoute.With("b/L1").Add(7)
	byRoute.With("a/L0").Inc()
	stage := r.DurationVec("stage_seconds_total", "Stage time.", "counter", "route", "stage")
	stage.With("a/L0", "join").Add(int64(1500 * time.Millisecond))
	stage.With("a/L0", "nest").Add(int64(250 * time.Millisecond))
	r.DurationVec("last_seconds", "Last.", "gauge", "route").With("a/L0").Set(int64(2 * time.Second))
	lat := r.Histogram("lat_seconds", "Latency.", []float64{0.1, 1, 10}, "route")
	for _, v := range []float64{0.05, 0.1, 0.5, 20} {
		lat.With("a/L0").Observe(v)
	}
	return r
}

func TestGatherStrictParses(t *testing.T) {
	var sb strings.Builder
	if err := Write(&sb, populated().Gather()); err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(sb.String())
	if err != nil {
		t.Fatalf("gathered families do not strict-parse: %v\n%s", err, sb.String())
	}
	want := map[string]float64{
		`reqs_total`:                3,
		`up_seconds`:                12.5,
		`route_total{route="a/L0"}`: 1,
		`route_total{route="b/L1"}`: 7,
		`stage_seconds_total{route="a/L0"}{stage="join"}`: 1.5,
		`stage_seconds_total{route="a/L0"}{stage="nest"}`: 0.25,
		`last_seconds{route="a/L0"}`:                      2,
		`lat_seconds_bucket{le="0.1"}{route="a/L0"}`:      2,
		`lat_seconds_bucket{le="1"}{route="a/L0"}`:        3,
		`lat_seconds_bucket{le="10"}{route="a/L0"}`:       3,
		`lat_seconds_bucket{le="+Inf"}{route="a/L0"}`:     4,
		`lat_seconds_sum{route="a/L0"}`:                   20.65,
		`lat_seconds_count{route="a/L0"}`:                 4,
	}
	got := map[string]float64{}
	for _, f := range parsed {
		for _, s := range f.Samples {
			got[s.Key()] = s.Value
		}
	}
	if len(got) != len(want) {
		t.Fatalf("got %d series, want %d: %v", len(got), len(want), got)
	}
	for k, v := range want {
		if g, ok := got[k]; !ok || g != v {
			t.Errorf("%s = %v (present %t), want %v", k, g, ok, v)
		}
	}
	if f := parsed["empty_total"]; f == nil || f.Type != "counter" || len(f.Samples) != 0 {
		t.Errorf("an unused labelled family still declares itself: %+v", f)
	}
	if parsed["stage_seconds_total"].Type != "counter" || parsed["last_seconds"].Type != "gauge" {
		t.Errorf("duration family types: %s, %s", parsed["stage_seconds_total"].Type, parsed["last_seconds"].Type)
	}
}

func TestWriteJSONShape(t *testing.T) {
	var sb strings.Builder
	if err := WriteJSON(&sb, populated().Gather()); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, sb.String())
	}
	if doc["reqs_total"] != 3.0 || doc["up_seconds"] != 12.5 {
		t.Errorf("unlabelled families should be numbers: %v %v", doc["reqs_total"], doc["up_seconds"])
	}
	if empty, ok := doc["empty_total"].(map[string]any); !ok || len(empty) != 0 {
		t.Errorf("an unused labelled family should be an empty object: %v", doc["empty_total"])
	}
	if routes := doc["route_total"].(map[string]any); routes["b/L1"] != 7.0 {
		t.Errorf("route_total: %v", routes)
	}
	stage := doc["stage_seconds_total"].(map[string]any)["a/L0"].(map[string]any)
	if stage["join"] != 1.5 || stage["nest"] != 0.25 {
		t.Errorf("two labels should nest route then stage: %v", stage)
	}
	lat := doc["lat_seconds"].(map[string]any)["a/L0"].(map[string]any)
	buckets := lat["buckets"].(map[string]any)
	if buckets["0.1"] != 2.0 || buckets["+Inf"] != 4.0 || lat["count"] != 4.0 || lat["sum"] != 20.65 {
		t.Errorf("histogram: %v", lat)
	}
}

// TestConcurrentSeries creates and bumps series from several goroutines while
// another gathers; run under -race it checks the series map locking.
func TestConcurrentSeries(t *testing.T) {
	r := NewRegistry()
	vec := r.CounterVec("hits_total", "Hits.", "key")
	hist := r.Histogram("obs", "Obs.", []float64{1}, "key")
	const workers, per = 4, 200
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				key := string(rune('a' + i%5))
				vec.With(key).Inc()
				hist.With(key).Observe(float64(i % 3))
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			r.Gather()
		}
	}()
	wg.Wait()
	<-done
	var total float64
	for _, f := range r.Gather() {
		if f.Name == "hits_total" {
			for _, s := range f.Samples {
				total += s.Value
			}
		}
	}
	if total != workers*per {
		t.Fatalf("counted %v increments, want %d", total, workers*per)
	}
}

// TestCounterUpdatesDoNotAllocate pins the hot-path contract: index scans and
// plan-cache hits bump Counters, which must cost one atomic add and no
// allocation.
func TestCounterUpdatesDoNotAllocate(t *testing.T) {
	c := NewRegistry().Counter("hot_total", "Hot.")
	if n := testing.AllocsPerRun(1000, func() { c.Inc(); c.Add(3) }); n != 0 {
		t.Fatalf("Counter update allocates %v times", n)
	}
}
