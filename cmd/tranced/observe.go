// Observability endpoints and helpers: per-request tracing (X-Trance-Trace-Id,
// GET /trace/{id}, the slow-query log) and the metric families behind
// GET /metrics. See docs/OBSERVABILITY.md.
package main

import (
	"bytes"
	"log"
	"net/http"
	"strings"
	"time"

	"github.com/trance-go/trance"
	"github.com/trance-go/trance/internal/promtext"
)

// startTrace opens a request trace, stamps its ID on the response headers
// (before any body byte is written), and returns it with a derived context.
func (s *server) startTrace(w http.ResponseWriter, r *http.Request, name string) (*trance.Trace, *http.Request) {
	t := trance.NewTrace(name)
	w.Header().Set("X-Trance-Trace-Id", t.ID)
	return t, r.WithContext(trance.ContextWithTrace(r.Context(), t))
}

// finishTrace closes the trace, files it in the ring behind GET /trace/{id},
// and logs the full span tree when the request crossed the slow-query
// threshold.
func (s *server) finishTrace(t *trance.Trace) {
	t.Finish()
	s.traces.Put(t)
	if s.cfg.SlowQuery > 0 && t.Dur() >= s.cfg.SlowQuery {
		log.Printf("tranced: slow query (%v >= %v)\n%s", t.Dur().Round(time.Microsecond), s.cfg.SlowQuery, t.Tree())
	}
}

// handleTrace serves one recent request trace from the in-memory ring as a
// span tree with wall times and attributes. Traces are evicted
// oldest-first; a 404 means the ID was never issued or has aged out.
func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	t := s.traces.Get(id)
	if t == nil {
		httpError(w, http.StatusNotFound, "unknown trace %q (kept: last %d traces)", id, s.traces.Len())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":      t.ID,
		"wall_us": t.Dur().Microseconds(),
		"root":    t.View(),
	})
}

// serverMetrics are tranced's own metric families, declared once on a
// per-server registry. GET /metrics renders them together with the library's
// process-wide promtext.Default families.
type serverMetrics struct {
	reg               *promtext.Registry
	requests          *promtext.Counter
	routeRequests     *promtext.CounterVec
	routeErrors       *promtext.CounterVec
	routeShuffleBytes *promtext.CounterVec
	routeLastLatency  *promtext.CounterVec
	routeStageSeconds *promtext.CounterVec
	routeLatency      *promtext.HistogramVec
}

func newServerMetrics(s *server) serverMetrics {
	r := promtext.NewRegistry()
	r.GaugeFunc("trance_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.started).Seconds() })
	r.GaugeFunc("trance_workers", "Shared worker pool size.",
		func() float64 { return float64(s.pool.Workers()) })
	r.GaugeFunc("trance_datasets", "Datasets registered in the catalog.",
		func() float64 { return float64(len(s.catalog.Names())) })
	return serverMetrics{
		reg:               r,
		requests:          r.Counter("trance_requests_total", "HTTP requests received."),
		routeRequests:     r.CounterVec("trance_route_requests_total", "Query requests by route (query/level/strategy).", "route"),
		routeErrors:       r.CounterVec("trance_route_errors_total", "Failed query requests by route.", "route"),
		routeShuffleBytes: r.CounterVec("trance_route_shuffle_bytes_total", "Engine bytes shuffled by route.", "route"),
		routeLastLatency:  r.DurationVec("trance_route_last_latency_seconds", "Execution latency of the route's latest run.", "gauge", "route"),
		routeStageSeconds: r.DurationVec("trance_route_stage_seconds_total", "Engine stage wall time by route and stage.", "counter", "route", "stage"),
		routeLatency:      r.Histogram("trance_route_latency_seconds", "Query execution latency by route.", latencyBuckets, "route"),
	}
}

// handleMetrics renders every metric family — the library's promtext.Default
// plus this server's registry — as JSON (the default) or, with
// ?format=prometheus or a text/plain Accept header (what a Prometheus scraper
// sends), in the text exposition format. Both formats render one gathering.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	format := r.URL.Query().Get("format")
	if format == "" && strings.Contains(r.Header.Get("Accept"), "text/plain") {
		format = "prometheus"
	}
	render, contentType := promtext.WriteJSON, "application/json"
	switch format {
	case "", "json":
	case "prometheus":
		render, contentType = promtext.Write, "text/plain; version=0.0.4; charset=utf-8"
	default:
		httpError(w, http.StatusBadRequest, "unknown metrics format %q (json or prometheus)", format)
		return
	}
	var buf bytes.Buffer
	if err := render(&buf, append(promtext.Default.Gather(), s.metrics.reg.Gather()...)); err != nil {
		httpError(w, http.StatusInternalServerError, "render metrics: %v", err)
		return
	}
	w.Header().Set("Content-Type", contentType)
	_, _ = w.Write(buf.Bytes())
}
