package main

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"github.com/trance-go/trance"
	"github.com/trance-go/trance/internal/dataflow"
	"github.com/trance-go/trance/internal/runner"
	"github.com/trance-go/trance/internal/shred"
	"github.com/trance-go/trance/internal/tpch"
	"github.com/trance-go/trance/internal/value"
)

// routeSpec is one query compiled under one strategy.
type routeSpec struct {
	class tpch.QueryClass
	level int
	wide  bool
	strat runner.Strategy
}

func (r routeSpec) name() string {
	return fmt.Sprintf("%s/L%d/%s", r.class, r.level, r.strat.CLIName())
}

// group names the query a route answers; every route of a group must
// produce the same output.
func (r routeSpec) group() string { return fmt.Sprintf("%s/L%d", r.class, r.level) }

// tpchWorkload is a closed-loop sweep over compiled and bound routes.
type tpchWorkload struct {
	customers int
	skew      int
	routes    []routeSpec
}

// batchWorkload is Fig 7b: the wide-schema TPC-H grid at levels 1-3, each
// query under the shredded route (with unshredding when the output is
// nested) and the standard route.
func batchWorkload(customers int) tpchWorkload {
	w := tpchWorkload{customers: customers}
	for _, class := range []tpch.QueryClass{tpch.FlatToNested, tpch.NestedToNested, tpch.NestedToFlat} {
		for level := 1; level <= 3; level++ {
			shredded := runner.ShredUnshred
			if class == tpch.NestedToFlat {
				shredded = runner.Shred
			}
			for _, s := range []runner.Strategy{shredded, runner.Standard} {
				w.routes = append(w.routes, routeSpec{class, level, true, s})
			}
		}
	}
	return w
}

// skewWorkload is Fig 8: the narrow nested-to-nested query at level 2 on
// skewed data, under the skew-oblivious and skew-aware variants.
func skewWorkload(customers, skew int) tpchWorkload {
	w := tpchWorkload{customers: customers, skew: skew}
	for _, s := range []runner.Strategy{runner.ShredUnshred, runner.ShredUnshredSkew, runner.Standard, runner.StandardSkew} {
		w.routes = append(w.routes, routeSpec{tpch.NestedToNested, 2, false, s})
	}
	return w
}

// engineConfig is the engine configuration every workload runs with: the
// default 8 partitions, two workers, and no per-partition memory cap, so
// every operation succeeds.
func engineConfig() runner.Config {
	cfg := runner.DefaultConfig()
	cfg.Workers = 2
	cfg.MaxPartitionBytes = 0
	return cfg
}

func (w tpchWorkload) tables(customers int, seed int64) *tpch.Tables {
	return tpch.Generate(tpch.Config{
		Customers: customers, OrdersPerCustomer: 6, LinesPerOrder: 4,
		Parts: max(customers*2/3, 10), SkewFactor: w.skew, Seed: seed,
	})
}

// inputsFor returns a route's named inputs, building each nested level's
// input once per set of tables.
func inputsFor(r routeSpec, t *tpch.Tables, nested map[int]value.Bag) map[string]value.Bag {
	if r.class == tpch.FlatToNested {
		return t.Inputs()
	}
	if _, ok := nested[r.level]; !ok {
		nested[r.level] = tpch.BuildNested(t, r.level, true)
	}
	return map[string]value.Bag{"NDB": nested[r.level], "Part": t.Part}
}

// boundRoute is a route compiled and bound during set-up.
type boundRoute struct {
	spec routeSpec
	cq   *runner.Compiled
	rows map[string][]dataflow.Row
	want int64 // output rows, fixed by the warm-up check
}

// setupStats times one set-up.
type setupStats struct {
	total, compile, bind time.Duration
}

// setup generates the tables, then compiles and binds every route through
// runner.Compile and Compiled.InputRows.
func (w tpchWorkload) setup(seed int64) ([]*boundRoute, setupStats, error) {
	var st setupStats
	start := time.Now()
	t := w.tables(w.customers, seed)
	nested := map[int]value.Bag{}
	cfg := engineConfig()
	var routes []*boundRoute
	for _, r := range w.routes {
		inputs := inputsFor(r, t, nested)
		c0 := time.Now()
		cq, err := runner.Compile(tpch.Query(r.class, r.level, r.wide), tpch.Env(r.class, r.level, r.wide), r.strat, cfg)
		st.compile += time.Since(c0)
		if err != nil {
			return nil, st, fmt.Errorf("compile %s: %w", r.name(), err)
		}
		b0 := time.Now()
		rows, err := cq.InputRows(inputs)
		st.bind += time.Since(b0)
		if err != nil {
			return nil, st, fmt.Errorf("bind %s: %w", r.name(), err)
		}
		routes = append(routes, &boundRoute{spec: r, cq: cq, rows: rows})
	}
	st.total = time.Since(start)
	return routes, st, nil
}

// execute runs one bound route once.
func execute(cq *runner.Compiled, rows map[string][]dataflow.Row) *runner.Result {
	return cq.ExecuteRows(context.Background(), rows, runner.NewRunContext(cq.Cfg, cq.Strategy))
}

// nestedOutput converts a result back to the nested value the query denotes:
// the output rows for standard and unshredding routes, the value-unshredded
// components for routes that stop at the shredded form.
func nestedOutput(cq *runner.Compiled, res *runner.Result) (value.Bag, error) {
	collect := func(d *dataflow.Dataset) []value.Tuple {
		rows := d.Collect()
		out := make([]value.Tuple, len(rows))
		for i, r := range rows {
			out[i] = value.Tuple(r)
		}
		return out
	}
	if cq.Strategy.IsShredded() && !cq.Strategy.Unshreds() {
		dicts := map[string][]value.Tuple{}
		for _, d := range cq.Mat.Dicts {
			dicts[strings.Join(d.Path, "_")] = collect(res.Shredded[d.Name])
		}
		return shred.UnshredValue(collect(res.Shredded[cq.Mat.TopName]), dicts, cq.Mat.OutType)
	}
	ts := collect(res.Output)
	out := make(value.Bag, len(ts))
	for i, t := range ts {
		out[i] = t
	}
	return out, nil
}

// checkRoutes runs every route once and requires each route's output to
// equal the standard route's output for the same query: the two
// compilation routes share no code past the query AST. It fixes each
// route's expected output row count for the measured loop.
func checkRoutes(routes []*boundRoute) error {
	ref := map[string]value.Bag{}
	sorted := append([]*boundRoute(nil), routes...)
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].spec.strat == runner.Standard && sorted[j].spec.strat != runner.Standard
	})
	for _, r := range sorted {
		res := execute(r.cq, r.rows)
		if res.Err != nil {
			return fmt.Errorf("%s: %w", r.spec.name(), res.Err)
		}
		r.want = res.Output.Count()
		got, err := nestedOutput(r.cq, res)
		if err != nil {
			return fmt.Errorf("%s: unshred output: %w", r.spec.name(), err)
		}
		if r.spec.strat == runner.Standard {
			ref[r.spec.group()] = got
			continue
		}
		if !approxEqual(got, ref[r.spec.group()]) {
			return fmt.Errorf("%s: output differs from the standard route's", r.spec.name())
		}
	}
	return nil
}

// checkOracle runs every route on a small instance from the same generator
// and compares it with the reference evaluator (nrc.Eval through
// trance.LocalEval), which is too slow to check the full size.
func (w tpchWorkload) checkOracle(seed int64, customers int) error {
	t := w.tables(customers, seed)
	nested := map[int]value.Bag{}
	want := map[string]value.Bag{}
	for _, r := range w.routes {
		inputs := inputsFor(r, t, nested)
		env := tpch.Env(r.class, r.level, r.wide)
		if _, ok := want[r.group()]; !ok {
			q := tpch.Query(r.class, r.level, r.wide)
			if _, err := trance.Check(q, env); err != nil {
				return fmt.Errorf("%s: %w", r.group(), err)
			}
			want[r.group()] = trance.LocalEval(q, inputs).(value.Bag)
		}
		cq, err := runner.Compile(tpch.Query(r.class, r.level, r.wide), env, r.strat, engineConfig())
		if err != nil {
			return fmt.Errorf("%s: %w", r.name(), err)
		}
		rows, err := cq.InputRows(inputs)
		if err != nil {
			return fmt.Errorf("%s: %w", r.name(), err)
		}
		res := execute(cq, rows)
		if res.Err != nil {
			return fmt.Errorf("%s: %w", r.name(), res.Err)
		}
		got, err := nestedOutput(cq, res)
		if err != nil {
			return fmt.Errorf("%s: %w", r.name(), err)
		}
		if !approxEqual(got, want[r.group()]) {
			return fmt.Errorf("%s: output differs from nrc.Eval at %d customers", r.name(), customers)
		}
	}
	return nil
}

// checkCount requires an execution to succeed with the output row count
// the route check fixed.
func checkCount(r *boundRoute, res *runner.Result) error {
	if res.Err != nil {
		return fmt.Errorf("%s: %w", r.spec.name(), res.Err)
	}
	if n := res.Output.Count(); n != r.want {
		return fmt.Errorf("%s: %d output rows, want %d", r.spec.name(), n, r.want)
	}
	return nil
}

// loopStats is one measured closed-loop phase.
type loopStats struct {
	ops, failed int
	elapsed     time.Duration
	perRoute    map[string][]float64 // execution ms per route
	sweeps      []float64            // seconds per complete sweep
	sweepMeans  []float64            // geometric mean ms over each complete sweep's routes
	sweepCPU    []float64            // process CPU seconds per complete sweep
	cpu         time.Duration        // process CPU over the whole phase
	routes      int
	firstFail   error
	execute     time.Duration
	engine      engineTotals
	rt          runtimeSample
}

// loop sweeps the routes in order with one client until d has elapsed,
// checking each operation's error and output row count.
func loop(routes []*boundRoute, d time.Duration, tr *tracer) loopStats {
	ls := loopStats{perRoute: map[string][]float64{}, routes: len(routes)}
	win := startRuntimeWindow()
	start, cpuStart := time.Now(), processCPU()
	for time.Since(start) < d {
		sweep := time.Now()
		cpu0 := processCPU()
		done := 0
		var times []float64
		for _, r := range routes {
			if time.Since(start) >= d {
				break
			}
			op := tr.begin(r.spec.name())
			op.enter("runner.execute")
			t0 := time.Now()
			res := execute(r.cq, r.rows)
			dt := time.Since(t0)
			op.engineStages(ls.engine.add(res.Metrics))
			op.exit()
			op.finish()
			ls.ops++
			done++
			times = append(times, ms(dt))
			ls.execute += dt
			if err := checkCount(r, res); err != nil {
				ls.failed++
				if ls.firstFail == nil {
					ls.firstFail = err
				}
				continue
			}
			ls.perRoute[r.spec.name()] = append(ls.perRoute[r.spec.name()], ms(dt))
		}
		if done == len(routes) {
			ls.sweeps = append(ls.sweeps, time.Since(sweep).Seconds())
			ls.sweepCPU = append(ls.sweepCPU, (processCPU() - cpu0).Seconds())
			ls.sweepMeans = append(ls.sweepMeans, geomean(times))
		}
	}
	ls.elapsed, ls.cpu = time.Since(start), processCPU()-cpuStart
	ls.rt = win.end()
	return ls
}

// The machine's speed drifts over seconds, and whether a GC cycle overlaps
// an execution makes one route's times bimodal (85 or 200 ms for the same
// skew route). The wall-clock statistics routeGeomean and throughput are
// therefore medians over complete sweeps, which keep a slow stretch shorter
// than half the run out of the result; a run too short for a complete sweep
// falls back to all queries.

// routeGeomean is the median over complete sweeps of the geometric mean of
// the sweep's execution times.
func (ls loopStats) routeGeomean() float64 {
	if len(ls.sweepMeans) > 0 {
		return median(ls.sweepMeans)
	}
	var means []float64
	for _, xs := range ls.perRoute {
		means = append(means, mean(xs))
	}
	return geomean(means)
}

// cpuPerOp is the process CPU ms per query over the complete sweeps, whose
// route mix is the workload's.
func (ls loopStats) cpuPerOp() float64 {
	if len(ls.sweepCPU) == 0 {
		return ratio(ms(ls.cpu), float64(ls.ops))
	}
	var sum float64
	for _, c := range ls.sweepCPU {
		sum += c
	}
	return ratio(sum*1e3, float64(len(ls.sweepCPU)*ls.routes))
}

// throughput is queries per second over the median complete sweep.
func (ls loopStats) throughput() float64 {
	if len(ls.sweeps) == 0 {
		return ratio(float64(ls.ops-ls.failed), ls.elapsed.Seconds())
	}
	return ratio(float64(ls.routes), median(ls.sweeps))
}

// run executes the workload: o.setups timed set-ups (the last one is kept),
// the output checks, one unmeasured warm-up sweep (which the route check
// is), then the measured loop. With tracing, the measured time is split
// into an untraced and a traced half.
func (w tpchWorkload) run(o runOptions, log io.Writer) (result, error) {
	m := metricSet{}
	var routes []*boundRoute
	var setups, compiles, binds []float64
	for i := 0; i < o.setups; i++ {
		rs, st, err := w.setup(o.seed)
		if err != nil {
			return result{}, err
		}
		routes = rs
		setups = append(setups, st.total.Seconds())
		compiles = append(compiles, ms(st.compile))
		binds = append(binds, ms(st.bind))
	}
	m.set("setup_s", median(setups))
	m.set("runner.compile_ms", median(compiles))
	m.set("runner.bind_ms", median(binds))

	if err := w.checkOracle(o.seed, o.oracleCustomers); err != nil {
		return result{}, fmt.Errorf("oracle check: %w", err)
	}
	if err := checkRoutes(routes); err != nil {
		return result{}, fmt.Errorf("route check: %w", err)
	}

	// The end-to-end and wall-clock numbers come from an untraced loop; a
	// traced run measures half its time untraced and the per-layer numbers
	// in a traced second half.
	d := o.duration
	if o.trace {
		d /= 2
	}
	plain := loop(routes, d, nil)
	ls := plain
	if o.trace {
		tr := newTracer()
		ls = loop(routes, d, tr)
		m.set("trace.overhead_ratio", ratio(ls.throughput(), plain.throughput()))
		tr.summarize(m)
		fmt.Fprint(log, tr.report())
		if path, err := tr.write(o.traceDir, o.traceName); err != nil {
			fmt.Fprintf(log, "trace not written: %v\n", err)
		} else {
			fmt.Fprintf(log, "spans written to %s\n", path)
		}
	}
	attempted, failed := plain.ops, plain.failed
	if o.trace {
		attempted += ls.ops
		failed += ls.failed
	}
	for _, p := range []loopStats{plain, ls} {
		if p.firstFail != nil {
			fmt.Fprintf(log, "first failure: %v\n", p.firstFail)
			break
		}
	}
	m.set("cpu_ms_per_op", plain.cpuPerOp())
	m.set("wall.throughput_qps", plain.throughput())
	m.set("wall.query_geomean_ms", plain.routeGeomean())
	m.set("runner.execute_ms", ls.routeGeomean())
	m.set("runner.execute_share", ratio(float64(ls.execute), float64(ls.elapsed)))
	m.set("runner.self_ms_per_op", ratio(ms(ls.execute-ls.engine.stageSum), float64(ls.engine.ops)))
	ls.engine.report(m)
	ls.rt.perOp(ls.ops, m)
	m.set("check.error_rate", ratio(float64(failed), float64(attempted)))

	fmt.Fprintf(log, "  %d queries in %.1f s, %d complete sweeps of %.3v s wall and %.3v s CPU, %.0f GC cycles, GC CPU share %.3f\n",
		ls.ops, ls.elapsed.Seconds(), len(ls.sweeps), ls.sweeps, ls.sweepCPU, ls.rt.gcCycles, ratio(ls.rt.gcCPU, ls.rt.totalCPU))
	names := make([]string, 0, len(ls.perRoute))
	for n := range ls.perRoute {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(log, "  %-40s n=%-4d mean=%9.2f ms p50=%9.2f ms\n", n, len(ls.perRoute[n]), mean(ls.perRoute[n]), median(ls.perRoute[n]))
	}
	return finish(m, o, attempted, failed), nil
}
