package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/trance-go/trance/internal/promtext"
)

// scrapeProm fetches the Prometheus exposition and strict-parses it; any
// format violation (declaration order, label escaping, histogram bucket
// monotonicity) fails the test.
func scrapeProm(t *testing.T, ts *httptest.Server, path string, hdr map[string]string) map[string]*promtext.ParsedFamily {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("GET %s: content type %q, want the 0.0.4 text exposition", path, ct)
	}
	fams, err := promtext.Parse(string(body))
	if err != nil {
		t.Fatalf("GET %s: exposition does not strict-parse: %v\n%s", path, err, body)
	}
	return fams
}

func TestPrometheusScrape(t *testing.T) {
	ts := httptest.NewServer(smallServer(t))
	defer ts.Close()

	getJSON(t, ts, "/query?name=tpch/nested-to-nested&level=1&strategy=shred", http.StatusOK)
	first := scrapeProm(t, ts, "/metrics?format=prometheus", nil)

	wantTypes := map[string]string{
		"trance_requests_total":            "counter",
		"trance_uptime_seconds":            "gauge",
		"trance_plan_cache_compiles_total": "counter",
		"trance_route_requests_total":      "counter",
		"trance_route_latency_seconds":     "histogram",
	}
	for name, typ := range wantTypes {
		fam := first[name]
		if fam == nil {
			t.Fatalf("family %s missing from scrape", name)
		}
		if fam.Type != typ {
			t.Fatalf("family %s has type %s, want %s", name, fam.Type, typ)
		}
	}
	route := "tpch/nested-to-nested/L1/shred"
	found := false
	for _, s := range first["trance_route_requests_total"].Samples {
		if s.Labels["route"] == route {
			found = true
			if s.Value < 1 {
				t.Fatalf("route %s counted %g requests", route, s.Value)
			}
		}
	}
	if !found {
		t.Fatalf("route label %q missing: %+v", route, first["trance_route_requests_total"].Samples)
	}

	// Counters must be monotonic across scrapes: run another query, scrape
	// again (this time via Accept negotiation), and compare sample by sample.
	getJSON(t, ts, "/query?name=tpch/nested-to-nested&level=1&strategy=shred", http.StatusOK)
	second := scrapeProm(t, ts, "/metrics", map[string]string{"Accept": "text/plain"})
	for name, fam := range first {
		if fam.Type != "counter" && fam.Type != "histogram" {
			continue
		}
		after := second[name]
		if after == nil {
			t.Fatalf("family %s disappeared between scrapes", name)
		}
		prev := map[string]float64{}
		for _, s := range fam.Samples {
			prev[s.Key()] = s.Value
		}
		for _, s := range after.Samples {
			if before, ok := prev[s.Key()]; ok && s.Value < before {
				t.Fatalf("%s went backwards: %g -> %g", s.Key(), before, s.Value)
			}
		}
	}
	if reqs := second["trance_route_requests_total"]; reqs != nil {
		for _, s := range reqs.Samples {
			if s.Labels["route"] != route {
				continue
			}
			var firstVal float64
			for _, f := range first["trance_route_requests_total"].Samples {
				if f.Key() == s.Key() {
					firstVal = f.Value
				}
			}
			if s.Value <= firstVal {
				t.Fatalf("route counter did not advance: %g -> %g", firstVal, s.Value)
			}
		}
	}
}

// seriesKey identifies one series across both /metrics formats: the sample
// name (family plus histogram suffix) and its label values, sorted — the
// JSON rendering keys by label value, not name.
func seriesKey(name string, values []string) string {
	sort.Strings(values)
	return name + "|" + strings.Join(values, "|")
}

// jsonSeries flattens the JSON /metrics document into seriesKey → value,
// using the family types from the Prometheus scrape to read histogram leaves.
func jsonSeries(t *testing.T, doc map[string]any, types map[string]string) map[string]float64 {
	out := map[string]float64{}
	var walk func(fam string, v any, path []string)
	walk = func(fam string, v any, path []string) {
		switch v := v.(type) {
		case float64:
			name := fam
			if types[fam] == "histogram" {
				switch n := len(path); {
				case n >= 2 && path[n-2] == "buckets":
					name, path = fam+"_bucket", append(path[:n-2:n-2], path[n-1])
				case n >= 1 && (path[n-1] == "sum" || path[n-1] == "count"):
					name, path = fam+"_"+path[n-1], path[:n-1]
				default:
					t.Fatalf("histogram %s: unexpected leaf at %v", fam, path)
				}
			}
			out[seriesKey(name, append([]string(nil), path...))] = v
		case map[string]any:
			for k, sub := range v {
				walk(fam, sub, append(path[:len(path):len(path)], k))
			}
		default:
			t.Fatalf("family %s: unexpected JSON value %T at %v", fam, v, path)
		}
	}
	for fam, v := range doc {
		walk(fam, v, nil)
	}
	return out
}

// TestMetricsJSONMatchesPrometheus scrapes both /metrics formats back to back
// after traffic through a catalog route, an ad-hoc text query and auto
// strategy resolution: they must serve the same families and the same value
// for every series. Only the scrape's own footprint may differ — the second
// scrape counts one more request and a later uptime.
func TestMetricsJSONMatchesPrometheus(t *testing.T) {
	ts := httptest.NewServer(smallServer(t))
	defer ts.Close()

	getJSON(t, ts, "/query?name=tpch/nested-to-nested&level=1&strategy=shred", http.StatusOK)
	getJSON(t, ts, "/query?name=tpch/nested-to-flat&level=1&strategy=auto", http.StatusOK)
	resp, err := http.Post(ts.URL+"/query?strategy=standard", "text/plain",
		strings.NewReader("for c in `tpch/customer` union if c.c_acctbal > 1000.0 then { { name := c.c_name } }"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /query: status %d", resp.StatusCode)
	}

	doc := getJSON(t, ts, "/metrics", http.StatusOK)
	prom := scrapeProm(t, ts, "/metrics?format=prometheus", nil)

	types := map[string]string{}
	promSeries := map[string]float64{}
	for name, f := range prom {
		types[name] = f.Type
		for _, s := range f.Samples {
			values := make([]string, 0, len(s.Labels))
			for _, v := range s.Labels {
				values = append(values, v)
			}
			promSeries[seriesKey(s.Name, values)] = s.Value
		}
	}
	for name := range doc {
		if prom[name] == nil {
			t.Errorf("family %s is in JSON only", name)
		}
	}
	for name := range prom {
		if _, ok := doc[name]; !ok {
			t.Errorf("family %s is in Prometheus only", name)
		}
	}
	for _, fam := range []string{"trance_route_latency_seconds", "trance_route_stage_seconds_total",
		"trance_route_last_latency_seconds", "trance_auto_strategy_total"} {
		if len(prom[fam].Samples) == 0 {
			t.Errorf("family %s has no series after the traffic above", fam)
		}
	}

	jsonVals := jsonSeries(t, doc, types)
	for key, pv := range promSeries {
		jv, ok := jsonVals[key]
		switch {
		case !ok:
			t.Errorf("series %s is in Prometheus only", key)
		case key == seriesKey("trance_requests_total", nil):
			if pv != jv+1 {
				t.Errorf("%s: Prometheus %g, want JSON %g plus its own scrape", key, pv, jv)
			}
		case key == seriesKey("trance_uptime_seconds", nil):
			if pv < jv {
				t.Errorf("%s went backwards: %g -> %g", key, jv, pv)
			}
		case pv != jv:
			t.Errorf("series %s: JSON %g, Prometheus %g", key, jv, pv)
		}
	}
	for key := range jsonVals {
		if _, ok := promSeries[key]; !ok {
			t.Errorf("series %s is in JSON only", key)
		}
	}
}

func TestMetricsRejectsUnknownFormat(t *testing.T) {
	ts := httptest.NewServer(smallServer(t))
	defer ts.Close()
	out := getJSON(t, ts, "/metrics?format=xml", http.StatusBadRequest)
	if out["error"] == nil {
		t.Fatalf("unknown format should report an error: %v", out)
	}
}

func TestTraceIDRoundTrip(t *testing.T) {
	ts := httptest.NewServer(smallServer(t))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/query?name=tpch/nested-to-nested&level=1&strategy=standard&limit=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	id := resp.Header.Get("X-Trance-Trace-Id")
	if id == "" {
		t.Fatal("query response carries no X-Trance-Trace-Id header")
	}

	out := getJSON(t, ts, "/trace/"+id, http.StatusOK)
	if out["id"] != id {
		t.Fatalf("trace id mismatch: %v vs %s", out["id"], id)
	}
	root, ok := out["root"].(map[string]any)
	if !ok {
		t.Fatalf("trace has no root span: %v", out)
	}
	names := spanNames(root)
	for _, want := range []string{"resolve", "execute", "encode"} {
		if !names[want] {
			t.Fatalf("span %q missing from trace tree %v", want, names)
		}
	}

	if bad := getJSON(t, ts, "/trace/ffffffffffffffff", http.StatusNotFound); bad["error"] == nil {
		t.Fatalf("unknown trace should 404 with an error: %v", bad)
	}
}

func spanNames(v map[string]any) map[string]bool {
	out := map[string]bool{v["name"].(string): true}
	children, _ := v["children"].([]any)
	for _, c := range children {
		for n := range spanNames(c.(map[string]any)) {
			out[n] = true
		}
	}
	return out
}

// TestScrapeWhileServing hammers both metrics renderings concurrently with
// query traffic. Under -race this guards the registry's gathering: it must
// never read a series the recording path is mutating without the series'
// atomic or lock.
func TestScrapeWhileServing(t *testing.T) {
	ts := httptest.NewServer(smallServer(t))
	defer ts.Close()

	const rounds = 8
	var wg sync.WaitGroup
	errs := make(chan error, 3*rounds)
	get := func(path string) error {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, body)
		}
		return nil
	}
	for i := 0; i < rounds; i++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			errs <- get("/query?name=tpch/nested-to-nested&level=1&strategy=shred&limit=1")
		}()
		go func() {
			defer wg.Done()
			errs <- get("/metrics")
		}()
		go func() {
			defer wg.Done()
			errs <- get("/metrics?format=prometheus")
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
