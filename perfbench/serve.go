package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"time"

	"github.com/trance-go/trance"
	"github.com/trance-go/trance/internal/ingest"
	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/tpch"
	"github.com/trance-go/trance/internal/value"
)

// Request types of the serving mix.
const (
	lookupReq = iota
	nestedReq
	writeReq
	numReqTypes
)

var reqTypeNames = [numReqTypes]string{"lookup", "nested", "write"}

// serveWorkload is the catalog tranced preloads at its defaults, served by
// one shared pool and one ad-hoc session under an open loop.
type serveWorkload struct {
	customers  int
	maxLevel   int
	rate       float64   // nominal offered rate, requests/s
	ladder     []float64 // offered rates probed for the highest sustainable one
	lookupMax  time.Duration
	nestedMax  time.Duration
	drainMax   time.Duration // longest drain after the last due time that is not a backlog
	prices     int           // distinct selection constants of the nested texts
	writeRows  int           // rows per write batch
	warmupReqs int
}

func defaultServe() serveWorkload {
	return serveWorkload{
		customers: 100, maxLevel: 2, rate: 60,
		ladder:    []float64{30, 60, 90, 120, 180},
		lookupMax: 25 * time.Millisecond, nestedMax: 75 * time.Millisecond, drainMax: 250 * time.Millisecond,
		prices: 8, writeRows: 2, warmupReqs: 200,
	}
}

const writeKeyBase = 10_000_000

// serveState is one set-up catalog with its session and expected outputs.
type serveState struct {
	cat      *trance.Catalog
	sess     *trance.Session
	orders   int
	lineType nrc.TupleType
	sample   value.Tuple // template for written rows
	lookups  map[int64]value.Bag
	nested   []value.Bag
}

func lookupText(key int64) string {
	return fmt.Sprintf("for l in `tpch/lineitem` union if l.l_orderkey == %d then "+
		"{ { l_orderkey := l.l_orderkey, l_linenumber := l.l_linenumber, "+
		"l_quantity := l.l_quantity, l_extendedprice := l.l_extendedprice } }", key)
}

// nestedText is nested-to-nested at level 1 with a selection on the part's
// price: the generator prices parts from 9.00 up.
func nestedText(i int) string {
	return fmt.Sprintf("for o in `tpch/ndb-l1` union { { o_orderkey := o.o_orderkey, o_orderdate := o.o_orderdate, "+
		"lineitems := sumby[p_name; total](for li in o.lineitems union for p in `tpch/part` union "+
		"if li.l_partkey == p.p_partkey && p.p_retailprice > %.2f then "+
		"{ { p_name := p.p_name, total := li.l_quantity * p.p_retailprice } }) } }", 9.0+0.1*float64(i))
}

// setup generates TPC-H and registers it as tranced does: the flat tables
// under tpch/<name> (registration builds the automatic indexes) and the
// nested levels under tpch/ndb-l<level>.
func (w serveWorkload) setup(seed int64) (*serveState, error) {
	t := tpch.Generate(tpch.Config{
		Customers: w.customers, OrdersPerCustomer: 6, LinesPerOrder: 4,
		Parts: 100, Seed: seed,
	})
	cat := trance.NewCatalog()
	flatEnv := tpch.FlatEnv()
	for name, bag := range t.Inputs() {
		if err := cat.Register("tpch/"+strings.ToLower(name), flatEnv[name], bag); err != nil {
			return nil, err
		}
	}
	for level := 0; level <= w.maxLevel; level++ {
		nenv := tpch.Env(tpch.NestedToNested, level, false)
		if err := cat.Register(fmt.Sprintf("tpch/ndb-l%d", level), nenv["NDB"], tpch.BuildNested(t, level, true)); err != nil {
			return nil, err
		}
	}
	cfg := engineConfig()
	sess := cat.NewSession(trance.SessionOptions{Config: &cfg, Pool: trance.NewPool(cfg.Workers)})
	return &serveState{
		cat: cat, sess: sess, orders: len(t.Orders),
		lineType: tpch.LineitemType.Elem.(nrc.TupleType), sample: t.Lineitem[0].(value.Tuple),
	}, nil
}

// expect computes every lookup's and nested text's output with the
// reference evaluator over the registered data. Writes only add and remove
// rows under fresh keys, so these stay the exact answers at every
// generation a request can read.
func (s *serveState) expect(w serveWorkload) error {
	env := s.cat.Env()
	inputs := map[string]value.Bag{}
	for name := range env {
		b, _, _ := s.cat.Data(name)
		inputs[name] = b
	}
	eval := func(src string) (value.Bag, error) {
		q, err := trance.Parse(src)
		if err != nil {
			return nil, err
		}
		if _, err := trance.Check(q, env); err != nil {
			return nil, err
		}
		return trance.LocalEval(q, inputs).(value.Bag), nil
	}
	s.lookups = map[int64]value.Bag{}
	for k := 1; k <= s.orders; k++ {
		b, err := eval(lookupText(int64(k)))
		if err != nil {
			return err
		}
		s.lookups[int64(k)] = b
	}
	for i := 0; i < w.prices; i++ {
		b, err := eval(nestedText(i))
		if err != nil {
			return err
		}
		s.nested = append(s.nested, b)
	}
	return nil
}

// request is one scheduled operation of the open loop.
type request struct {
	typ  int
	due  time.Duration // offset from the loop's start
	key  int64         // lookup key, or the write's fresh key
	text string
	body []byte // write: NDJSON rows
	want value.Bag
	sent time.Time
	// latency is the ms from due time to completion, set by the executor
	// that completed the request; failed requests keep 0.
	latency float64
}

// schedule draws n requests at the offered rate: Poisson arrivals,
// rescaled so the last one is due at n/rate, in an exact mix of 70%
// lookups with Zipf-drawn keys, 25% nested and 5% writes, shuffled in
// blocks of 20.
func (w serveWorkload) schedule(s *serveState, r *rand.Rand, rate float64, n int, firstWrite int64) ([]*request, error) {
	zipf := rand.NewZipf(r, 1.1, 1, uint64(s.orders-1))
	arrivals := make([]float64, n)
	var at float64
	for i := range arrivals {
		at += r.ExpFloat64()
		arrivals[i] = at
	}
	span := float64(n) / rate
	block := make([]int, 0, 20)
	for i := 0; i < 20; i++ {
		switch {
		case i < 14:
			block = append(block, lookupReq)
		case i < 19:
			block = append(block, nestedReq)
		default:
			block = append(block, writeReq)
		}
	}
	reqs := make([]*request, 0, n)
	nextKey := firstWrite
	for i := 0; i < n; i++ {
		if i%len(block) == 0 {
			r.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		req := &request{typ: block[i%len(block)], due: time.Duration(arrivals[i] / at * span * float64(time.Second))}
		switch req.typ {
		case lookupReq:
			req.key = int64(zipf.Uint64()) + 1
			req.text = lookupText(req.key)
			req.want = s.lookups[req.key]
		case nestedReq:
			c := r.Intn(w.prices)
			req.text = nestedText(c)
			req.want = s.nested[c]
		default:
			req.key = nextKey
			nextKey++
			var buf bytes.Buffer
			for j := 0; j < w.writeRows; j++ {
				row := append(value.Tuple(nil), s.sample...)
				row[0] = req.key
				row[3] = int64(j + 1)
				js, err := json.Marshal(trance.ToJSON(row, s.lineType))
				if err != nil {
					return nil, err
				}
				buf.Write(js)
				buf.WriteByte('\n')
			}
			req.body = buf.Bytes()
		}
		reqs = append(reqs, req)
	}
	return reqs, nil
}

// serveStats accumulates one executor's measurements.
type serveStats struct {
	ops, failed  int
	service      time.Duration // summed time spent executing
	parse        []float64
	prepare      []float64
	run          [numReqTypes][]float64
	runTotal     time.Duration
	runs         int
	encode       []float64
	appendMs     []float64
	deleteMs     []float64
	wait, lag    []float64
	engine       engineTotals
	firstFailure error
}

func (a *serveStats) merge(b *serveStats) {
	a.ops += b.ops
	a.failed += b.failed
	for t := range a.run {
		a.run[t] = append(a.run[t], b.run[t]...)
	}
	a.service += b.service
	a.parse = append(a.parse, b.parse...)
	a.prepare = append(a.prepare, b.prepare...)
	a.runTotal += b.runTotal
	a.runs += b.runs
	a.encode = append(a.encode, b.encode...)
	a.appendMs = append(a.appendMs, b.appendMs...)
	a.deleteMs = append(a.deleteMs, b.deleteMs...)
	a.wait = append(a.wait, b.wait...)
	a.engine.merge(&b.engine)
	if a.firstFailure == nil {
		a.firstFailure = b.firstFailure
	}
}

// timed runs fn inside a span and returns its duration.
func timed(op *opTrace, name string, fn func()) time.Duration {
	op.enter(name)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	op.exit()
	return d
}

// query serves one text request through the public serving path: parse,
// session prepare (resolve, plan cache, compile on a miss), run, collect
// and encode, then checks the rows.
func (s *serveState) query(req *request, op *opTrace, st *serveStats) (check func() error, err error) {
	strat := trance.Standard
	if req.typ == nestedReq {
		strat = trance.ShredUnshred
	}
	var (
		q    trance.Expr
		sq   *trance.SessionQuery
		cols []trance.OutputColumn
		res  *trance.Result
		rows []value.Tuple
	)
	st.parse = append(st.parse, ms(timed(op, "parse", func() { q, err = trance.Parse(req.text) })))
	if err != nil {
		return nil, err
	}
	st.prepare = append(st.prepare, ms(timed(op, "session.prepare", func() {
		if sq, err = s.sess.Prepare(q); err == nil {
			cols, err = sq.Prepared().OutputSchema(strat)
		}
	})))
	if err != nil {
		return nil, err
	}
	op.enter("runner.run")
	t0 := time.Now()
	res, err = sq.Run(context.Background(), strat)
	d := time.Since(t0)
	if res != nil {
		op.engineStages(st.engine.add(res.Metrics))
	}
	op.exit()
	st.run[req.typ] = append(st.run[req.typ], ms(d))
	st.runTotal += d
	st.runs++
	if err != nil {
		return nil, err
	}
	timed(op, "dataflow.collect", func() {
		for _, r := range res.Output.CollectSorted() {
			rows = append(rows, value.Tuple(r))
		}
	})
	fields := make([]nrc.Field, len(cols))
	for i, c := range cols {
		fields[i] = nrc.Field{Name: c.Name, Type: c.Type}
	}
	var enc []map[string]any
	st.encode = append(st.encode, ms(timed(op, "ingest.encode", func() { enc = ingest.EncodeRows(rows, fields) })))
	return func() error {
		got := make(value.Bag, len(rows))
		for i, r := range rows {
			got[i] = r
		}
		if len(enc) != len(rows) || !approxEqual(got, req.want) {
			return fmt.Errorf("%s: rows differ from nrc.Eval (%d rows, want %d)", req.text, len(rows), len(req.want))
		}
		return nil
	}, nil
}

// write appends a batch under a fresh key and deletes it again, so the
// dataset's size stays level; each call bumps the generation.
func (s *serveState) write(req *request, op *opTrace, st *serveStats, rows int) (check func() error, err error) {
	var n, deleted int
	st.appendMs = append(st.appendMs, ms(timed(op, "catalog.append", func() {
		_, n, err = s.cat.AppendJSON("tpch/lineitem", bytes.NewReader(req.body))
	})))
	if err != nil {
		return nil, err
	}
	st.deleteMs = append(st.deleteMs, ms(timed(op, "catalog.delete", func() {
		deleted, err = s.cat.Delete("tpch/lineitem", "l_orderkey", req.key)
	})))
	if err != nil {
		return nil, err
	}
	return func() error {
		if n != rows || deleted != rows {
			return fmt.Errorf("write %d: appended %d and deleted %d rows, want %d", req.key, n, deleted, rows)
		}
		return nil
	}, nil
}

// openLoop sends the requests at their due times to two executors and
// waits until every request has completed.
func (s *serveState) openLoop(w serveWorkload, reqs []*request, tr *tracer) (*serveStats, int, time.Duration) {
	const executors = 2
	queue := make(chan *request, len(reqs)) // never blocks the generator
	var wg sync.WaitGroup
	stats := make([]*serveStats, executors)
	start := time.Now()
	for e := 0; e < executors; e++ {
		st := &serveStats{}
		stats[e] = st
		wg.Add(1)
		go func() {
			defer wg.Done()
			for req := range queue {
				deq := time.Now()
				st.wait = append(st.wait, ms(deq.Sub(req.sent)))
				op := tr.begin(reqTypeNames[req.typ])
				var check func() error
				var err error
				if req.typ == writeReq {
					check, err = s.write(req, op, st, w.writeRows)
				} else {
					check, err = s.query(req, op, st)
				}
				op.finish()
				done := time.Now()
				if err == nil {
					err = check()
				}
				st.ops++
				st.service += done.Sub(deq)
				if err != nil {
					st.failed++
					if st.firstFailure == nil {
						st.firstFailure = err
					}
					continue
				}
				req.latency = ms(done.Sub(start.Add(req.due)))
			}
		}()
	}
	backlog := 0
	var lags []float64
	for _, req := range reqs {
		if d := req.due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		req.sent = time.Now()
		lags = append(lags, ms(req.sent.Sub(start.Add(req.due))))
		queue <- req
		backlog = max(backlog, len(queue))
	}
	close(queue)
	wg.Wait()
	elapsed := time.Since(start)
	all := &serveStats{}
	for _, st := range stats {
		all.merge(st)
	}
	all.lag = lags
	return all, backlog, elapsed
}

// phase is one measured open-loop run at one offered rate.
type phase struct {
	st      *serveStats
	backlog int
	elapsed time.Duration
	drain   time.Duration // completion after the last due time
	cpu     time.Duration // process CPU over the phase
	rt      runtimeSample
	cache   trance.CacheStats
	index   trance.IndexStats
	reqs    []*request
}

// measure runs n requests at the offered rate.
func (s *serveState) measure(w serveWorkload, r *rand.Rand, rate float64, n int, tr *tracer, nextKey *int64) (phase, error) {
	reqs, err := w.schedule(s, r, rate, n, *nextKey)
	if err != nil {
		return phase{}, err
	}
	*nextKey += int64(n)
	cache0, idx0 := trance.PlanCacheStats(), trance.IndexCounters()
	win := startRuntimeWindow()
	cpu0 := processCPU()
	st, backlog, elapsed := s.openLoop(w, reqs, tr)
	cpu := processCPU() - cpu0
	p := phase{st: st, backlog: backlog, elapsed: elapsed, cpu: cpu, rt: win.end(), reqs: reqs}
	p.drain = elapsed - reqs[len(reqs)-1].due
	c1, i1 := trance.PlanCacheStats(), trance.IndexCounters()
	p.cache = trance.CacheStats{Compiles: c1.Compiles - cache0.Compiles, Hits: c1.Hits - cache0.Hits}
	p.index = trance.IndexStats{
		Scans: i1.Scans - idx0.Scans, RowsMatched: i1.RowsMatched - idx0.RowsMatched,
		Maintained: i1.Maintained - idx0.Maintained,
	}
	return p, nil
}

// latencies returns the latencies of a type's completed requests.
func (p phase) latencies(typ int) []float64 {
	var out []float64
	for _, r := range p.reqs {
		if r.typ == typ && r.latency > 0 {
			out = append(out, r.latency)
		}
	}
	return out
}

// windowGeomean splits the phase by due time into n windows and returns the
// median over windows of the geometric mean over request types of each
// type's median latency. The machine's speed drifts over seconds; a window
// median keeps a slow stretch shorter than half the phase out of the
// result.
func (p phase) windowGeomean(n int) float64 { return median(p.windowGeomeans(n)) }

// windowGeomeans is each window's geometric mean.
func (p phase) windowGeomeans(n int) []float64 {
	span := p.reqs[len(p.reqs)-1].due + 1
	lat := make([][numReqTypes][]float64, n)
	for _, r := range p.reqs {
		if r.latency > 0 {
			i := int(int64(r.due) * int64(n) / int64(span))
			lat[i][r.typ] = append(lat[i][r.typ], r.latency)
		}
	}
	var gs []float64
	for _, w := range lat {
		meds := make([]float64, 0, numReqTypes)
		for _, xs := range w {
			meds = append(meds, median(xs))
		}
		gs = append(gs, geomean(meds))
	}
	return gs
}

// sustains reports whether the phase met both latency limits at p90
// without a growing backlog: the queue drained within drainMax of the last
// due time, which a write (about 100 ms) alone never exceeds.
func (p phase) sustains(w serveWorkload) bool {
	return p.st.failed == 0 &&
		quantile(p.latencies(lookupReq), 0.9) <= ms(w.lookupMax) &&
		quantile(p.latencies(nestedReq), 0.9) <= ms(w.nestedMax) &&
		p.drain <= w.drainMax
}

// count returns how many requests of a type the phase completed or failed.
func (p phase) count(typ int) int {
	n := 0
	for _, r := range p.reqs {
		if r.typ == typ {
			n++
		}
	}
	return n
}

func (w serveWorkload) run(o runOptions, log io.Writer) (result, error) {
	m := metricSet{}
	var st *serveState
	var setups []float64
	for i := 0; i < o.setups; i++ {
		t0 := time.Now()
		s, err := w.setup(o.seed)
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		st = s
	}
	m.set("setup_s", median(setups))
	if err := st.expect(w); err != nil {
		return result{}, fmt.Errorf("expected outputs: %w", err)
	}

	attempted, failed := 0, 0
	var firstFailure error
	account := func(p phase) {
		attempted += p.st.ops
		failed += p.st.failed
		if firstFailure == nil {
			firstFailure = p.st.firstFailure
		}
	}
	r := rand.New(rand.NewSource(o.seed))
	nextKey := int64(writeKeyBase)
	// Warm-up: fill the plan cache and the session's converted rows.
	warm, err := st.measure(w, r, 1e6, w.warmupReqs, nil, &nextKey)
	if err != nil {
		return result{}, err
	}
	account(warm)
	d := o.duration
	if o.trace {
		d = o.duration / 2
	}
	n := max(int(w.rate*d.Seconds()), 1)
	plain, err := st.measure(w, r, w.rate, n, nil, &nextKey)
	if err != nil {
		return result{}, err
	}
	account(plain)
	m.set("cpu_ms_per_op", ratio(ms(plain.cpu), float64(plain.st.ops)))
	m.set("wall.throughput_qps", ratio(float64(plain.st.ops-plain.st.failed), plain.elapsed.Seconds()))
	m.set("wall.query_geomean_ms", plain.windowGeomean(10))
	plain.rt.perOp(plain.st.ops, m)
	for t := 0; t < numReqTypes; t++ {
		lat := plain.latencies(t)
		m.set("serve."+reqTypeNames[t]+"_p50_ms", median(lat))
		m.set("serve."+reqTypeNames[t]+"_p90_ms", quantile(lat, 0.9))
		fmt.Fprintf(log, "  %-7s n=%-4d p50=%8.2f ms p90=%8.2f ms\n", reqTypeNames[t], len(lat), median(lat), quantile(lat, 0.9))
	}
	fmt.Fprintf(log, "  window geomeans %.3v ms\n", plain.windowGeomeans(10))

	if o.trace {
		tr := newTracer()
		traced, err := st.measure(w, r, w.rate, n, tr, &nextKey)
		if err != nil {
			return result{}, err
		}
		account(traced)
		capacity := func(p phase) float64 { return ratio(float64(p.st.ops), p.st.service.Seconds()) }
		m.set("trace.overhead_ratio", ratio(capacity(traced), capacity(plain)))
		tr.summarize(m)
		fmt.Fprint(log, tr.report())
		if path, err := tr.write(o.traceDir, o.traceName); err != nil {
			fmt.Fprintf(log, "trace not written: %v\n", err)
		} else {
			fmt.Fprintf(log, "spans written to %s\n", path)
		}
		w.layerMetrics(traced, m)

		var best float64
		for _, rate := range w.ladder {
			step := o.duration.Seconds() / float64(2*len(w.ladder))
			p, err := st.measure(w, r, rate, max(int(rate*step), 1), nil, &nextKey)
			if err != nil {
				return result{}, err
			}
			account(p)
			ok := p.sustains(w)
			fmt.Fprintf(log, "  ladder %6.0f/s: lookup p90 %.2f ms, nested p90 %.2f ms, drain %.1f ms, ok=%t\n", rate,
				quantile(p.latencies(lookupReq), 0.9), quantile(p.latencies(nestedReq), 0.9), ms(p.drain), ok)
			if !ok {
				break
			}
			best = rate
		}
		m.set("loadgen.max_rate_qps", best)
	}
	if firstFailure != nil {
		fmt.Fprintf(log, "first failure: %v\n", firstFailure)
	}
	m.set("check.error_rate", ratio(float64(failed), float64(attempted)))
	return finish(m, o, attempted, failed), nil
}

// layerMetrics sets the per-layer metrics of a traced phase.
func (w serveWorkload) layerMetrics(p phase, m metricSet) {
	st := p.st
	m.set("parse.ms_p50", median(st.parse))
	m.set("session.prepare_ms_p50", median(st.prepare))
	m.set("session.prepare_ms_p90", quantile(st.prepare, 0.9))
	m.set("session.plancache_hit_ratio", ratio(float64(p.cache.Hits), float64(p.cache.Hits+p.cache.Compiles)))
	m.set("session.compiles_per_op", ratio(float64(p.cache.Compiles), float64(st.ops)))
	m.set("runner.execute_ms", geomean([]float64{mean(st.run[lookupReq]), mean(st.run[nestedReq])}))
	m.set("runner.execute_share", ratio(float64(st.runTotal), float64(st.service)))
	m.set("runner.self_ms_per_op", ratio(ms(st.runTotal-st.engine.stageSum), float64(st.runs)))
	st.engine.report(m)
	m.set("index.scans_per_lookup", ratio(float64(p.index.Scans), float64(p.count(lookupReq))))
	m.set("index.rows_matched_per_scan", ratio(float64(p.index.RowsMatched), float64(p.index.Scans)))
	m.set("index.maintained_per_write", ratio(float64(p.index.Maintained), float64(p.count(writeReq))))
	m.set("catalog.append_ms_p50", median(st.appendMs))
	m.set("catalog.delete_ms_p50", median(st.deleteMs))
	m.set("ingest.encode_ms_p50", median(st.encode))
	p.rt.perOp(st.ops, m)
	m.set("loadgen.lag_ms_p90", quantile(st.lag, 0.9))
	m.set("loadgen.queue_wait_ms_p90", quantile(st.wait, 0.9))
	m.set("loadgen.backlog_max", float64(p.backlog))
}
