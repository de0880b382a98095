package index

import (
	"fmt"
	"sort"
	"sync"

	"github.com/trance-go/trance/internal/promtext"
)

// Counters is a snapshot of the index subsystem counters (trance.IndexCounters
// reads Metrics into it).
type Counters struct {
	// Built counts successful index builds (registration-time auto-builds and
	// explicit CreateIndex calls alike).
	Built int64
	// Refused counts refused builds (non-scalar keys, mixed-type columns,
	// range-over-bool); Metrics.RefusalReasons breaks them down.
	Refused int64
	// Maintained counts incremental Extend merges performed by Append.
	Maintained int64
	// Rebuilt counts full rebuilds performed by Delete.
	Rebuilt int64
	// PlannedScans counts Select→IndexScan conversions made by the planner.
	PlannedScans int64
	// Scans counts IndexScan nodes executed against a bound index.
	Scans int64
	// Fallbacks counts IndexScan nodes executed without a usable bound index
	// (degraded to a full scan plus the span predicate).
	Fallbacks int64
	// RowsMatched totals the rows gathered by executed index scans.
	RowsMatched int64
}

// Metrics are the process-wide index subsystem counters, declared on
// promtext.Default and incremented where the event happens (builds here, the
// rebuilds by the catalog, planned scans by the planner, executed scans and
// fallbacks by the executor).
var Metrics = struct {
	Built, Refused, Maintained, Rebuilt         *promtext.Counter
	PlannedScans, Scans, Fallbacks, RowsMatched *promtext.Counter
	RefusalReasons                              *promtext.CounterVec
}{
	Built:          promtext.Default.Counter("trance_index_built_total", "Secondary indexes built."),
	Refused:        promtext.Default.Counter("trance_index_refused_total", "Index builds refused."),
	Maintained:     promtext.Default.Counter("trance_index_maintained_total", "Incremental index maintenance operations."),
	Rebuilt:        promtext.Default.Counter("trance_index_rebuilt_total", "Index rebuilds."),
	PlannedScans:   promtext.Default.Counter("trance_index_planned_scans_total", "Index scans planned."),
	Scans:          promtext.Default.Counter("trance_index_scans_total", "Index scans executed."),
	Fallbacks:      promtext.Default.Counter("trance_index_fallbacks_total", "Index scans that fell back to full scans."),
	RowsMatched:    promtext.Default.Counter("trance_index_rows_matched_total", "Rows matched by index scans."),
	RefusalReasons: promtext.Default.CounterVec("trance_index_refusals_total", "Index build refusals by reason.", "reason"),
}

// refuse counts a build refusal under its reason and returns the error.
func refuse(col, reason string) error {
	Metrics.Refused.Inc()
	Metrics.RefusalReasons.With(reason).Inc()
	return fmt.Errorf("index: cannot index column %s: %s", col, reason)
}

// Set is a concurrency-safe collection of column indexes for one dataset (or
// one bound input). Column indexes are immutable; the set itself may gain
// columns after creation.
type Set struct {
	mu   sync.RWMutex
	cols map[string]*ColumnIndex
}

// NewSet returns an empty set.
func NewSet() *Set { return &Set{cols: map[string]*ColumnIndex{}} }

// Put installs (or replaces) the index for its column.
func (s *Set) Put(ci *ColumnIndex) {
	s.mu.Lock()
	s.cols[ci.Col] = ci
	s.mu.Unlock()
}

// Column returns the index for the named column, or nil.
func (s *Set) Column(name string) *ColumnIndex {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cols[name]
}

// Names returns the indexed column names, sorted.
func (s *Set) Names() []string {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.cols))
	for n := range s.cols {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of indexed columns.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.cols)
}

// Clone returns a set sharing the (immutable) column indexes, so a catalog
// mutation can derive a successor set without touching snapshots.
func (s *Set) Clone() *Set {
	out := NewSet()
	if s == nil {
		return out
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for n, ci := range s.cols {
		out.cols[n] = ci
	}
	return out
}
