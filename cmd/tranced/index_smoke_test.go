package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// postJSON posts a body and decodes the JSON response, asserting the status.
func postJSON(t *testing.T, ts *httptest.Server, path, body string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: read: %v", path, err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d (want %d): %s", path, resp.StatusCode, wantStatus, raw)
	}
	var out map[string]any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("POST %s: not JSON: %v\n%s", path, err, raw)
	}
	return out
}

// TestIndexServingSmoke drives the index + mutation surface end to end over
// HTTP: upload a selective dataset (auto-indexed at registration), build an
// explicit index, verify a point query plans as an index scan ([index=…] in
// the explain, counters in /metrics), then append and delete rows and verify
// the served results follow the new generations immediately.
func TestIndexServingSmoke(t *testing.T) {
	cfg := defaultServerConfig()
	cfg.Customers = 5
	cfg.MaxLevel = 0
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// 200 rows with a high-NDV id column: enough for the statistics layer to
	// flag id as selective and auto-build its indexes at registration.
	var sb strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&sb, "{\"id\": %d, \"grp\": %d, \"val\": %g}\n", i, i%5, float64(i)/4)
	}
	up := postJSON(t, ts, "/datasets?name=smoke-idx", sb.String(), http.StatusCreated)
	if up["rows"].(float64) != 200 {
		t.Fatalf("upload: %v", up)
	}

	// The auto-built index on id is listed.
	list := getJSON(t, ts, "/datasets/smoke-idx/indexes", http.StatusOK)
	var idIdx map[string]any
	for _, e := range list["indexes"].([]any) {
		if m := e.(map[string]any); m["column"] == "id" {
			idIdx = m
		}
	}
	if idIdx == nil || idIdx["auto"] != true || idIdx["keys"].(float64) != 200 {
		t.Fatalf("auto index on id missing or wrong: %v", list)
	}

	// An explicit build on a low-NDV column the auto policy skipped.
	created := postJSON(t, ts, "/datasets/smoke-idx/indexes?column=grp&kind=hash", "", http.StatusCreated)
	if created["kind"] != "hash" || created["auto"] != false || created["keys"].(float64) != 5 {
		t.Fatalf("create index: %v", created)
	}
	// Unknown dataset and unknown column are client errors, not crashes.
	postJSON(t, ts, "/datasets/nope/indexes?column=id", "", http.StatusNotFound)
	postJSON(t, ts, "/datasets/smoke-idx/indexes?column=zzz", "", http.StatusBadRequest)

	// A point query on the indexed column plans as an index scan.
	query := "for r in `datasets/smoke-idx` union if r.id == 7 then { { id := r.id, grp := r.grp } }"
	exp := postJSON(t, ts, "/explain", query, http.StatusOK)
	if text := exp["explain"].(string); !strings.Contains(text, "[index=") || !strings.Contains(text, "col=id") {
		t.Fatalf("explain lacks index scan:\n%s", text)
	}
	out := postJSON(t, ts, "/query", query, http.StatusOK)
	if out["rows"].(float64) != 1 {
		t.Fatalf("point query: %v", out)
	}

	// The scan shows up in the /metrics index families.
	metrics := getJSON(t, ts, "/metrics", http.StatusOK)
	if metrics["trance_index_built_total"].(float64) < 2 || metrics["trance_index_planned_scans_total"].(float64) < 1 ||
		metrics["trance_index_scans_total"].(float64) < 1 || metrics["trance_index_rows_matched_total"].(float64) < 1 {
		t.Fatalf("index metrics: %v", metrics)
	}

	// Append two rows (one sharing id 7): the next request over the same
	// prepared text serves the new generation — no restart, no re-prepare.
	app := postJSON(t, ts, "/datasets/smoke-idx/append",
		"{\"id\": 7, \"grp\": 1, \"val\": 9.5}\n{\"id\": 500, \"grp\": 0, \"val\": 1.0}",
		http.StatusOK)
	if app["appended"].(float64) != 2 || app["rows"].(float64) != 202 {
		t.Fatalf("append: %v", app)
	}
	if out := postJSON(t, ts, "/query", query, http.StatusOK); out["rows"].(float64) != 2 {
		t.Fatalf("append not visible through prepared query: %v", out)
	}
	fresh := "for r in `datasets/smoke-idx` union if r.id == 500 then { { id := r.id } }"
	if out := postJSON(t, ts, "/query", fresh, http.StatusOK); out["rows"].(float64) != 1 {
		t.Fatalf("appended row not served: %v", out)
	}
	metrics = getJSON(t, ts, "/metrics", http.StatusOK)
	if n := metrics["trance_index_maintained_total"].(float64); n < 1 {
		t.Fatalf("append did not maintain indexes incrementally: %v", n)
	}

	// Delete by key: both id=7 rows go, and the served results follow.
	del := postJSON(t, ts, "/datasets/smoke-idx/delete?column=id&value=7", "", http.StatusOK)
	if del["removed"].(float64) != 2 || del["rows"].(float64) != 200 {
		t.Fatalf("delete: %v", del)
	}
	if out := postJSON(t, ts, "/query", query, http.StatusOK); out["rows"].(float64) != 0 {
		t.Fatalf("deleted rows still served: %v", out)
	}
	metrics = getJSON(t, ts, "/metrics", http.StatusOK)
	if n := metrics["trance_index_rebuilt_total"].(float64); n < 1 {
		t.Fatalf("delete did not rebuild indexes: %v", n)
	}
}
