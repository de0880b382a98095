package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// GET /explain renders a served query's plans before and after the
// rule-based optimizer and the optimizer counters land in /metrics.
func TestExplainEndpoint(t *testing.T) {
	ts := httptest.NewServer(smallServer(t))
	defer ts.Close()

	out := getJSON(t, ts, "/explain?name=tpch/nested-to-flat&level=1&strategy=standard", http.StatusOK)
	text, ok := out["explain"].(string)
	if !ok || text == "" {
		t.Fatalf("explain text missing: %v", out)
	}
	if !strings.Contains(text, "strategy: STANDARD") || !strings.Contains(text, "optimizer:") {
		t.Fatalf("explain lacks strategy/optimizer header:\n%s", text)
	}
	if !strings.Contains(text, "Scan") {
		t.Fatalf("explain lacks a plan tree:\n%s", text)
	}

	// The shredded route shows the program's assignments (and, for
	// shred+unshred, the unshred plan).
	out = getJSON(t, ts, "/explain?name=tpch/nested-to-nested&level=1&strategy=shred%2Bunshred", http.StatusOK)
	text = out["explain"].(string)
	if !strings.Contains(text, "assignment") || !strings.Contains(text, "unshred plan") {
		t.Fatalf("shredded explain lacks assignments/unshred sections:\n%s", text)
	}

	// Bad requests are 4xx.
	getJSON(t, ts, "/explain?name=nope", http.StatusBadRequest)
	getJSON(t, ts, "/explain?name=tpch/nested-to-flat&level=9", http.StatusBadRequest)
	getJSON(t, ts, "/explain?name=tpch/nested-to-flat&strategy=warp", http.StatusBadRequest)

	// Optimizer rule-hit counters are served by /metrics. The preloaded
	// queries are equality-only (their filters become join keys), so drive a
	// query with a residual predicate through POST /query first.
	q := "for c in `tpch/customer` union for o in `tpch/orders` union " +
		"if c.c_custkey == o.o_custkey && c.c_acctbal > 1000.0 then { { name := c.c_name, total := o.o_totalprice } }"
	resp, err := http.Post(ts.URL+"/query?strategy=standard", "text/plain", strings.NewReader(q))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /query: status %d", resp.StatusCode)
	}
	metrics := getJSON(t, ts, "/metrics", http.StatusOK)
	pushed, ok := metrics["trance_optimizer_predicates_pushed_total"].(float64)
	if !ok {
		t.Fatalf("optimizer counters missing from /metrics: %v", metrics)
	}
	if pushed < 1 {
		t.Fatalf("the filtered ad-hoc query should have pushed a predicate: %v", pushed)
	}
}
