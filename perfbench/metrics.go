package main

import (
	"regexp"
	"strings"
)

// metricDef declares one reported metric. moves names the end-to-end metric
// (and workload) a per-layer metric should move; README.md renders the same
// table.
type metricDef struct {
	name, unit, moves string
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload with tracing off.
var endToEnd = []metricDef{
	{"cpu_ms_per_op", "ms", "process CPU time, user plus system, per query (tpch-*) or request (serve-adhoc)"},
	{"alloc_mb_per_op", "MB", "heap bytes allocated per operation"},
	{"setup_s", "s", "median of five set-ups: generate, load or compile, bind"},
}

// stageKinds are the dataflow stage kinds (StageWall names without their
// sequence number, "/" mapped to "-") the workloads run. Kinds outside the
// list are summed into stage.other.
var stageKinds = []string{
	"join", "join-L", "join-R", "bjoin", "skewjoin",
	"nest", "nest-reduce", "unnest", "unnest-heavy", "other",
}

// perLayer are the traced run's metrics, one family per module. Every
// workload reports all of them; a layer a workload does not exercise
// reads 0.
var perLayer = append([]metricDef{
	{"wall.throughput_qps", "1/s", "queries per second over the median complete sweep (tpch-*); requests completed per second at the nominal rate (serve-adhoc)"},
	{"wall.query_geomean_ms", "ms", "median over sweeps of the sweep's geometric-mean execution time (tpch-*); median over ten windows of the geometric mean over request types of the median latency (serve-adhoc)"},
	{"parse.ms_p50", "ms", "lookup latency (serve-adhoc)"},
	{"session.prepare_ms_p50", "ms", "lookup and nested latency, max rate (serve-adhoc); 0 on tpch-*"},
	{"session.prepare_ms_p90", "ms", "lookup and nested tail, max rate (serve-adhoc)"},
	{"session.plancache_hit_ratio", "ratio", "lookup tail, max rate (serve-adhoc)"},
	{"session.compiles_per_op", "count", "lookup tail, max rate (serve-adhoc)"},
	{"runner.compile_ms", "ms", "setup_s (tpch-batch, tpch-skew)"},
	{"runner.bind_ms", "ms", "setup_s (tpch-batch, tpch-skew)"},
	{"runner.execute_ms", "ms", "cpu_ms_per_op, wall.* (tpch-*); nested latency (serve-adhoc)"},
	{"runner.execute_share", "ratio", "wall.throughput_qps (tpch-*)"},
	{"runner.self_ms_per_op", "ms", "cpu_ms_per_op (tpch-*): execute time outside dataflow stages"},
	{"dataflow.ms_per_op", "ms", "cpu_ms_per_op (tpch-*): summed stage wall time"},
	{"dataflow.shuffle_mb_per_op", "MB", "cpu_ms_per_op, alloc_mb_per_op (tpch-batch); not lookup latency"},
	{"dataflow.shuffle_records_per_op", "count", "cpu_ms_per_op, alloc_mb_per_op (tpch-batch)"},
	{"dataflow.broadcast_mb_per_op", "MB", "cpu_ms_per_op, alloc_mb_per_op (tpch-batch)"},
	{"dataflow.exchange_columnar_mb_per_op", "MB", "cpu_ms_per_op, alloc_mb_per_op (tpch-batch)"},
	{"dataflow.exchange_boxed_mb_per_op", "MB", "cpu_ms_per_op, alloc_mb_per_op (tpch-batch)"},
	{"dataflow.stages_per_op", "count", "cpu_ms_per_op (tpch-batch)"},
	{"dataflow.skipped_shuffle_ratio", "ratio", "cpu_ms_per_op (tpch-batch)"},
	{"dataflow.vectorized_rows_per_op", "count", "cpu_ms_per_op (tpch-batch)"},
	{"dataflow.peak_partition_rows", "count", "wall.query_geomean_ms (tpch-skew); not tpch-batch"},
	{"dataflow.peak_partition_mb", "MB", "wall.query_geomean_ms (tpch-skew); not tpch-batch"},
	{"index.scans_per_lookup", "count", "lookup latency (serve-adhoc)"},
	{"index.rows_matched_per_scan", "count", "lookup latency (serve-adhoc)"},
	{"index.maintained_per_write", "count", "write latency (serve-adhoc)"},
	{"catalog.append_ms_p50", "ms", "write latency (serve-adhoc)"},
	{"catalog.delete_ms_p50", "ms", "write latency (serve-adhoc)"},
	{"ingest.encode_ms_p50", "ms", "lookup and nested latency (serve-adhoc)"},
	{"runtime.gc_cpu_share", "ratio", "cpu_ms_per_op, alloc_mb_per_op (tpch-*)"},
	{"runtime.gc_cycles_per_op", "count", "cpu_ms_per_op, alloc_mb_per_op (tpch-*)"},
	{"runtime.mallocs_per_op", "count", "cpu_ms_per_op, alloc_mb_per_op (tpch-*)"},
	{"serve.lookup_p50_ms", "ms", "wall.query_geomean_ms (serve-adhoc)"},
	{"serve.lookup_p90_ms", "ms", "lookup tail (serve-adhoc)"},
	{"serve.nested_p50_ms", "ms", "wall.query_geomean_ms (serve-adhoc)"},
	{"serve.nested_p90_ms", "ms", "nested tail (serve-adhoc)"},
	{"serve.write_p50_ms", "ms", "wall.query_geomean_ms (serve-adhoc)"},
	{"loadgen.max_rate_qps", "1/s", "highest ladder rate meeting the latency limits (serve-adhoc)"},
	{"loadgen.lag_ms_p90", "ms", "validity of the open loop (serve-adhoc)"},
	{"loadgen.queue_wait_ms_p90", "ms", "validity of the open loop (serve-adhoc)"},
	{"loadgen.backlog_max", "count", "validity of the open loop (serve-adhoc)"},
	{"trace.overhead_ratio", "ratio", "traced over untraced throughput"},
	{"trace.layer_sum_ratio_p50", "ratio", "per operation: summed layer self times over wall time"},
	{"trace.ops_within_10pct", "ratio", "share of operations whose layer self times sum to within 10% of wall"},
	{"check.error_rate", "ratio", "failed over attempted operations; must be 0"},
}, stageMetrics()...)

func stageMetrics() []metricDef {
	out := make([]metricDef, len(stageKinds))
	for i, k := range stageKinds {
		out[i] = metricDef{"stage." + k + ".ms_per_op", "ms", "cpu_ms_per_op (tpch-batch); skewjoin and unnest-heavy: wall.query_geomean_ms (tpch-skew)"}
	}
	return out
}

var stageSeq = regexp.MustCompile(`#\d+`)

// stageKind maps a StageWall name such as "nest#5/reduce" to its declared
// kind ("nest-reduce"), or "other".
func stageKind(stage string) string {
	k := strings.ReplaceAll(stageSeq.ReplaceAllString(stage, ""), "/", "-")
	for _, known := range stageKinds {
		if k == known {
			return k
		}
	}
	return "other"
}

// metricSet collects a run's metric values by name.
type metricSet map[string]float64

func (m metricSet) set(name string, v float64) { m[name] = v }

// output selects the declared metrics of one mode, with their units.
// Declared metrics a workload did not measure read 0.
func (m metricSet) output(defs []metricDef) map[string]metricOut {
	out := make(map[string]metricOut, len(defs))
	for _, d := range defs {
		out[d.name] = metricOut{Value: m[d.name], Unit: d.unit}
	}
	return out
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}
