package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
	"time"

	"github.com/trance-go/trance/internal/value"
)

// declared reads the metrics BENCHMARK.json declares, name to unit.
func declared(t *testing.T) (endToEndUnits, perLayerUnits map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	endToEndUnits, perLayerUnits = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEndUnits[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayerUnits[m.Name] = m.Unit
	}
	return endToEndUnits, perLayerUnits
}

func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	e2e, layers := declared(t)
	for _, c := range []struct {
		defs []metricDef
		want map[string]string
	}{{endToEnd, e2e}, {perLayer, layers}} {
		if len(c.defs) != len(c.want) {
			t.Errorf("BENCHMARK.json declares %d metrics, the benchmark %d", len(c.want), len(c.defs))
		}
		for _, d := range c.defs {
			if u, ok := c.want[d.name]; !ok || u != d.unit {
				t.Errorf("%s: BENCHMARK.json unit %q (declared %t), benchmark unit %q", d.name, u, ok, d.unit)
			}
		}
	}
}

// tinyWorkloads are the three workloads at a size that runs in seconds.
func tinyWorkloads() map[string]func(runOptions, io.Writer) (result, error) {
	serve := defaultServe()
	serve.customers, serve.rate, serve.ladder, serve.warmupReqs = 10, 200, []float64{100, 200}, 20
	return map[string]func(runOptions, io.Writer) (result, error){
		"tpch-batch":  batchWorkload(30).run,
		"tpch-skew":   skewWorkload(40, 4).run,
		"serve-adhoc": serve.run,
	}
}

// TestSmoke runs every workload at a tiny size, traced and untraced, on two
// seeds: every declared metric must be printed with its unit, and every
// output check must pass.
func TestSmoke(t *testing.T) {
	e2e, layers := declared(t)
	for name, run := range tinyWorkloads() {
		for _, seed := range []int64{1, 2} {
			for _, traced := range []bool{false, true} {
				o := runOptions{
					seed: seed, duration: 400 * time.Millisecond, trace: traced,
					setups: 1, oracleCustomers: 6, traceDir: t.TempDir(), traceName: name,
				}
				res, err := run(o, io.Discard)
				if err != nil {
					t.Fatalf("%s seed %d trace %t: %v", name, seed, traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("%s seed %d trace %t: correct=%t attempted=%d failed=%d",
						name, seed, traced, res.Correct, res.Attempted, res.Failed)
				}
				want := e2e
				if traced {
					want = layers
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%s trace %t: %d metrics printed, %d declared", name, traced, len(res.Metrics), len(want))
				}
				for m, unit := range want {
					got, ok := res.Metrics[m]
					if !ok || got.Unit != unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
						t.Errorf("%s trace %t: metric %s = %+v (printed %t), want unit %s", name, traced, m, got, ok, unit)
					}
					if !traced && got.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m, got.Value)
					}
				}
				if traced && res.Metrics["check.error_rate"].Value != 0 {
					t.Errorf("%s: error_rate %v", name, res.Metrics["check.error_rate"].Value)
				}
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestSelfTimes(t *testing.T) {
	rec := opRecord{
		Spans: []span{
			{ID: 1, Name: "op.lookup", Start: 0, End: 100},
			{ID: 2, Parent: 1, Name: "parse", Start: 0, End: 10},
			{ID: 3, Parent: 1, Name: "runner.run", Start: 10, End: 90},
		},
		Stages: map[string]int64{"join": 50},
	}
	layers, wall, harness := selfTimes(rec)
	if wall != 100 || harness != 10 || layers["parse"] != 10 || layers["runner"] != 30 || layers["dataflow"] != 50 {
		t.Fatalf("selfTimes = %v wall %v harness %v", layers, wall, harness)
	}
}

func TestApproxEqual(t *testing.T) {
	sum := 0.1
	sum += 0.2 // 0.30000000000000004
	a := value.Bag{value.Tuple{int64(1), sum}, value.Tuple{int64(2), 1.0}}
	b := value.Bag{value.Tuple{int64(2), 1.0}, value.Tuple{int64(1), 0.3}}
	if !approxEqual(a, b) {
		t.Fatal("bags equal up to rounding compare unequal")
	}
	if approxEqual(value.Bag{1.0}, value.Bag{1.001}) {
		t.Fatal("distinct reals compare equal")
	}
}
