// Differential oracle harness: a seeded byte-stream generator (the same
// technique as the AST generator in internal/parse/fuzz_test.go, extended to
// well-typed queries of the distributed fragment over random nested datasets)
// produces hundreds of random NRC queries, each executed under all seven
// concrete strategies plus AUTO × {optimized+cost model, ablated} — sixteen
// distributed runs per query — and every result is compared against the
// tuple-at-a-time nrc.Eval reference semantics. Datasets are uniform or
// heavily skewed (a hot key carrying ~70% of R), per-run statistics feed the
// cost model and Auto's route choice, and the broadcast limit varies so joins
// exercise broadcast, swapped-broadcast, and shuffle paths. Any disagreement
// is a soundness bug in the compiler, the engine, the rule-based optimizer,
// or the cost-based planning layer.
package runner_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/plan"
	"github.com/trance-go/trance/internal/runner"
	"github.com/trance-go/trance/internal/shred"
	"github.com/trance-go/trance/internal/stats"
	"github.com/trance-go/trance/internal/value"
)

// diffEnv is the fixed input environment of the generated queries: a
// two-level nested relation R (with an inner bag per item) and a flat
// relation S to join with.
func diffEnv() nrc.Env {
	return nrc.Env{
		"R": nrc.BagOf(nrc.Tup(
			"a", nrc.IntT,
			"b", nrc.StringT,
			"c", nrc.RealT,
			"items", nrc.BagOf(nrc.Tup(
				"v", nrc.IntT,
				"w", nrc.StringT,
				"tags", nrc.BagOf(nrc.Tup("t", nrc.IntT)),
			)),
		)),
		"S": nrc.BagOf(nrc.Tup("k", nrc.IntT, "name", nrc.StringT)),
	}
}

var diffStrs = []string{"ash", "birch", "cedar", "oak"}

// dgen deterministically derives datasets and queries from a byte stream.
type dgen struct {
	data []byte
	i    int
}

func (g *dgen) b() byte {
	if g.i >= len(g.data) {
		return 0
	}
	v := g.data[g.i]
	g.i++
	return v
}

func (g *dgen) n(n int) int    { return int(g.b()) % n }
func (g *dgen) coin() bool     { return g.b()%2 == 0 }
func (g *dgen) str() string    { return diffStrs[g.n(len(diffStrs))] }
func (g *dgen) intv() int64    { return int64(g.n(5)) }
func (g *dgen) realv() float64 { return float64(g.n(4)) + 0.5 }

// dataset builds small random nested inputs: key ranges overlap deliberately
// so joins hit, miss, and duplicate; bags are frequently empty. One seed in
// four draws the skewed shape instead: a hot key carries ~70% of a larger R
// (and appears in S), so collected statistics cross the Auto skew threshold
// and the skew-aware operators' heavy/light split actually triggers.
func (g *dgen) dataset() map[string]value.Bag {
	skewed := g.n(4) == 0
	nR, nS := g.n(6), g.n(5)
	var hot int64
	if skewed {
		hot = g.intv()
		nR, nS = 20+g.n(5), 4+g.n(4)
	}
	R := value.Bag{}
	for i := 0; i < nR; i++ {
		items := value.Bag{}
		for j := g.n(4); j > 0; j-- {
			tags := value.Bag{}
			for k := g.n(3); k > 0; k-- {
				tags = append(tags, value.Tuple{g.intv()})
			}
			items = append(items, value.Tuple{g.intv(), g.str(), tags})
		}
		a := g.intv()
		if skewed && i%10 < 7 {
			a = hot
		}
		R = append(R, value.Tuple{a, g.str(), g.realv(), items})
	}
	S := value.Bag{}
	for i := 0; i < nS; i++ {
		k := g.intv()
		if skewed && i == 0 {
			k = hot
		}
		S = append(S, value.Tuple{k, g.str()})
	}
	return map[string]value.Bag{"R": R, "S": S}
}

// path lazily constructs a scalar access path, so every use gets fresh AST
// nodes (trees must not share nodes across positions).
type path struct {
	mk  func() nrc.Expr
	typ nrc.Type
}

func projPath(v string, typ nrc.Type, fields ...string) path {
	return path{typ: typ, mk: func() nrc.Expr { return nrc.P(nrc.V(v), fields...) }}
}

// scope tracks the scalar paths available to predicates and heads.
type scope struct{ paths []path }

func (s *scope) ofType(t nrc.Type) []path {
	var out []path
	for _, p := range s.paths {
		if nrc.TypesEqual(p.typ, t) {
			out = append(out, p)
		}
	}
	return out
}

// constOf builds a literal of the given scalar type.
func (g *dgen) constOf(t nrc.Type) nrc.Expr {
	switch {
	case nrc.TypesEqual(t, nrc.IntT):
		return nrc.C(g.intv())
	case nrc.TypesEqual(t, nrc.RealT):
		return nrc.C(g.realv())
	default:
		return nrc.C(g.str())
	}
}

var cmpBuilders = []func(l, r nrc.Expr) *nrc.Cmp{nrc.EqOf, nrc.NeOf, nrc.LtOf, nrc.LeOf, nrc.GtOf, nrc.GeOf}

// atom builds one comparison over the scope: path vs constant, path vs path
// of the same type, or (rarely) a constant-only comparison that the
// optimizer's constant folding collapses.
func (g *dgen) atom(sc *scope) nrc.Expr {
	ts := []nrc.Type{nrc.IntT, nrc.RealT, nrc.StringT}
	t := ts[g.n(len(ts))]
	cands := sc.ofType(t)
	cmp := cmpBuilders[g.n(len(cmpBuilders))]
	if len(cands) == 0 || g.n(8) == 0 {
		return cmp(g.constOf(t), g.constOf(t))
	}
	l := cands[g.n(len(cands))].mk()
	if len(cands) > 1 && g.coin() {
		return cmp(l, cands[g.n(len(cands))].mk())
	}
	return cmp(l, g.constOf(t))
}

// pred builds a small boolean combination of atoms.
func (g *dgen) pred(sc *scope) nrc.Expr {
	p := g.atom(sc)
	for extra := g.n(3); extra > 0; extra-- {
		q := g.atom(sc)
		if g.n(4) == 0 {
			q = nrc.NotOf(q)
		}
		if g.coin() {
			p = nrc.AndOf(p, q)
		} else {
			p = nrc.OrOf(p, q)
		}
	}
	return p
}

// scalarExpr builds a head expression of the given type from the scope.
func (g *dgen) scalarExpr(sc *scope, t nrc.Type) nrc.Expr {
	cands := sc.ofType(t)
	if len(cands) == 0 || g.n(6) == 0 {
		return g.constOf(t)
	}
	e := cands[g.n(len(cands))].mk()
	if nrc.TypesEqual(t, nrc.StringT) || g.n(3) != 0 {
		return e
	}
	ops := []func(l, r nrc.Expr) *nrc.Arith{nrc.AddOf, nrc.SubOf, nrc.MulOf}
	return ops[g.n(len(ops))](e, g.constOf(t))
}

// comp builds a root comprehension producing {f1: int, f2: real, f3: string}
// tuples. The generator chain is: R always; optionally a join with S (keyed,
// constant-keyed, or cross), optionally an unnest of x.items, optionally a
// deeper unnest of it.tags; then an optional residual guard. withSub
// additionally adds a bag-valued head field built by a correlated inner
// comprehension (over x.items, or it.tags when the items were consumed by an
// unnest), which compiles to outer operators, nullifying selections, and Γ.
func (g *dgen) comp(withSub bool) nrc.Expr {
	sc := &scope{paths: []path{
		projPath("x", nrc.IntT, "a"),
		projPath("x", nrc.StringT, "b"),
		projPath("x", nrc.RealT, "c"),
	}}
	var guards []nrc.Expr

	useJoin := g.coin()
	if useJoin {
		switch g.n(4) {
		case 0:
			// Constant-keyed join: the equality feeds join-side derivation.
			guards = append(guards, nrc.EqOf(nrc.P(nrc.V("s"), "k"), nrc.C(g.intv())))
			guards = append(guards, nrc.EqOf(nrc.P(nrc.V("x"), "a"), nrc.P(nrc.V("s"), "k")))
		case 1:
			// Cross join (no equality links x and s).
		default:
			guards = append(guards, nrc.EqOf(nrc.P(nrc.V("x"), "a"), nrc.P(nrc.V("s"), "k")))
		}
		sc.paths = append(sc.paths,
			projPath("s", nrc.IntT, "k"),
			projPath("s", nrc.StringT, "name"))
	}
	useItems := g.coin()
	useTags := false
	if useItems {
		sc.paths = append(sc.paths,
			projPath("it", nrc.IntT, "v"),
			projPath("it", nrc.StringT, "w"))
		// withSub reserves it.tags for the correlated inner comprehension:
		// a bag flattened by an enclosing for cannot be iterated again
		// (the unnesting stage refuses consumed bag columns).
		if !withSub && g.coin() {
			useTags = true
			sc.paths = append(sc.paths, projPath("tg", nrc.IntT, "t"))
		}
	}
	if g.coin() {
		guards = append(guards, g.pred(sc))
	}
	// A selective point guard on R.a (indexed in ~3/4 of the seeds): the
	// generator's free-form predicates reach a Scan almost exclusively as
	// range conjuncts with default-estimated selectivity, which the measured
	// range gate (indexScanMaxRangeSelectivity) rightly refuses — without an
	// equality that converts at 1/NDV, the matrix's index dimension would go
	// vacuous.
	if g.n(3) == 0 {
		guards = append(guards, nrc.EqOf(nrc.P(nrc.V("x"), "a"), nrc.C(g.intv())))
	}

	fields := []any{
		"f1", g.scalarExpr(sc, nrc.IntT),
		"f2", g.scalarExpr(sc, nrc.RealT),
		"f3", g.scalarExpr(sc, nrc.StringT),
	}
	if withSub {
		// Inner comprehension over a bag not consumed by an outer unnest:
		// x.items normally, it.tags when the items were unnested above.
		innerVar := "it2"
		innerPaths := []path{projPath("it2", nrc.IntT, "v"), projPath("it2", nrc.StringT, "w")}
		src := nrc.P(nrc.V("x"), "items")
		if useItems {
			innerVar = "tg2"
			innerPaths = []path{projPath("tg2", nrc.IntT, "t")}
			src = nrc.P(nrc.V("it"), "tags")
		}
		isc := &scope{paths: append(append([]path{}, sc.paths...), innerPaths...)}
		head := nrc.SingOf(nrc.Record(
			"p", g.scalarExpr(isc, nrc.IntT),
			"q", g.scalarExpr(isc, nrc.RealT)))
		var body nrc.Expr = head
		if g.coin() {
			body = nrc.IfThen(g.pred(isc), head)
		}
		fields = append(fields, "sub", nrc.ForIn(innerVar, src, body))
	}

	body := nrc.Expr(nrc.SingOf(nrc.Record(fields...)))
	for i := len(guards) - 1; i >= 0; i-- {
		body = nrc.IfThen(guards[i], body)
	}
	if useTags {
		body = nrc.ForIn("tg", nrc.P(nrc.V("it"), "tags"), body)
	}
	if useItems {
		body = nrc.ForIn("it", nrc.P(nrc.V("x"), "items"), body)
	}
	if useJoin {
		body = nrc.ForIn("s", nrc.V("S"), body)
	}
	return nrc.ForIn("x", nrc.V("R"), body)
}

// query builds one top-level query: a plain flat or nested comprehension, or
// a root aggregate / dedup / union over flat comprehensions.
func (g *dgen) query() nrc.Expr {
	switch g.n(8) {
	case 0:
		return nrc.SumByOf(g.comp(false), []string{"f1", "f3"}, []string{"f2"})
	case 1:
		return nrc.SumByOf(g.comp(false), []string{"f3"}, []string{"f2"})
	case 2:
		// groupBy does not shred (its nested output attribute would need a
		// dictionary), so the shred-compatible deep flat shape is dedup∘union.
		return nrc.DedupOf(nrc.UnionOf(g.comp(false), g.comp(false)))
	case 3:
		return nrc.DedupOf(g.comp(false))
	case 4:
		return nrc.UnionOf(g.comp(false), g.comp(false))
	case 5, 6:
		return g.comp(true)
	default:
		return g.comp(false)
	}
}

// diffConfig is the cluster sizing for differential runs: small enough to be
// fast, parallel enough to exercise shuffles. The full configuration carries
// collected statistics and a generator-chosen broadcast limit; the ablated
// configuration disables both the rule-based optimizer and the cost model
// (so every seed also runs the un-annotated plans Auto degrades to Standard
// on). vec toggles the columnar batch path independently, so every seed runs
// both the vectorized kernels and the row-at-a-time interpreter they must be
// bit-identical to.
func diffConfig(full, vec, noIdx bool, ests map[string]plan.TableEstimate, limit int64) runner.Config {
	cfg := runner.DefaultConfig()
	cfg.Parallelism = 3
	cfg.NoPredicatePushdown = !full
	cfg.NoCostModel = !full
	cfg.NoVectorize = !vec
	cfg.NoIndexScan = noIdx
	cfg.Stats = ests
	cfg.BroadcastLimit = limit
	return cfg
}

// diffIndexCols are the scalar columns the generator may index: every
// top-level scalar of R and S (inner-bag columns are not indexable).
var diffIndexCols = []struct{ ds, col string }{
	{"R", "a"}, {"R", "b"}, {"R", "c"}, {"S", "k"}, {"S", "name"},
}

// chooseIndexes draws the seed's index configuration: each top-level scalar
// column independently gains a hash index, an ordered index, both, or none.
// Returns the flag map to stamp into the collected statistics.
func (g *dgen) chooseIndexes() map[string]map[string][2]bool {
	out := map[string]map[string][2]bool{}
	for _, ic := range diffIndexCols {
		h, o := g.coin(), g.coin()
		if !h && !o {
			continue
		}
		if out[ic.ds] == nil {
			out[ic.ds] = map[string][2]bool{}
		}
		out[ic.ds][ic.col] = [2]bool{h, o}
	}
	return out
}

// applyIndexes stamps the chosen index flags into the collected statistics —
// the same shape a catalog session's resolve produces — and publishes the
// shredded-route estimate aliases so IndexScan conversion happens on the
// shredded top components too.
func applyIndexes(ests map[string]plan.TableEstimate, chosen map[string]map[string][2]bool) {
	for ds, cols := range chosen {
		te, ok := ests[ds]
		if !ok {
			continue
		}
		for col, kinds := range cols {
			ce := te.Cols[col]
			ce.IndexHash, ce.IndexOrdered = kinds[0], kinds[1]
			te.Cols[col] = ce
		}
		ests[shred.MatName(ds, nil)] = te
	}
}

// collectDiffStats gathers per-input statistics the way a catalog session
// would, sized to the differential cluster.
func collectDiffStats(env nrc.Env, inputs map[string]value.Bag) map[string]plan.TableEstimate {
	ests := map[string]plan.TableEstimate{}
	for name, b := range inputs {
		bt := env[name].(nrc.BagType)
		ests[name] = stats.Collect(b, bt, stats.Options{Parallelism: 3}).Estimate()
	}
	return ests
}

// oracleEval runs the reference evaluator.
func oracleEval(q nrc.Expr, env nrc.Env, inputs map[string]value.Bag) (value.Bag, error) {
	if _, err := nrc.Check(q, env); err != nil {
		return nil, err
	}
	var s *nrc.Scope
	for name, b := range inputs {
		s = s.Bind(name, b)
	}
	return nrc.Eval(q, s).(value.Bag), nil
}

// nestedOutput converts a strategy's result dataset back to the nested value
// the oracle produces: rows as tuples for standard and unshredding routes,
// value-unshredding of the materialized components for the shredded routes
// that stop at the dictionary representation (SHRED, SHRED-SKEW). cq.Strategy
// is the resolved route, so AUTO runs land in the right branch too.
func nestedOutput(cq *runner.Compiled, res *runner.Result) (value.Bag, error) {
	if cq.Strategy.IsShredded() && !cq.Strategy.Unshreds() {
		top := make([]value.Tuple, 0)
		for _, r := range res.Shredded[cq.Mat.TopName].Collect() {
			top = append(top, value.Tuple(r))
		}
		dicts := map[string][]value.Tuple{}
		for _, d := range cq.Mat.Dicts {
			rows := make([]value.Tuple, 0)
			for _, r := range res.Shredded[d.Name].Collect() {
				rows = append(rows, value.Tuple(r))
			}
			dicts[strings.Join(d.Path, "_")] = rows
		}
		return shred.UnshredValue(top, dicts, cq.Mat.OutType)
	}
	out := make(value.Bag, 0)
	for _, r := range res.Output.Collect() {
		out = append(out, value.Tuple(r))
	}
	return out, nil
}

// diffStrategies covers every concrete route plus the statistics-driven
// meta-strategy.
var diffStrategies = append(runner.AllStrategies(), runner.Auto)

// diffBroadcastLimits are the generator-selected broadcast limits: 0 forces
// every annotated join to shuffle, 200 bytes lets only tiny sides broadcast
// (exercising the swap path), and the default 64 KB broadcasts everything at
// differential scale.
var diffBroadcastLimits = []int64{0, 200, 64 << 10}

// runDifferential executes one generated query under the full
// strategy × {full, ablated} × {vectorized, row-only} × {indexed,
// NoIndexScan} matrix and compares each run against the oracle (the index
// arm only splits full runs: ablated runs skip annotation and so never plan
// index scans). The query is regenerated from the same bytes for every
// compilation (compilation annotates ASTs in place). Returns the number of
// runs whose plans the optimizer changed, the number of vectorized runs that
// actually executed at least one columnar batch, and the number of runs that
// planned at least one index scan, or an error describing the first
// divergence.
func runDifferential(data []byte, strict bool) (optimized, vectorized, indexed int, err error) {
	env := diffEnv()
	g := &dgen{data: data}
	inputs := g.dataset()
	limit := diffBroadcastLimits[g.n(len(diffBroadcastLimits))]
	chosen := g.chooseIndexes()
	queryAt := g.i
	mkQuery := func() nrc.Expr {
		qg := &dgen{data: data, i: queryAt}
		return qg.query()
	}
	q := mkQuery()

	want, err := oracleEval(q, env, inputs)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("generated query fails Check (generator bug): %v\n%s", err, nrc.Print(q))
	}
	ests := collectDiffStats(env, inputs)
	applyIndexes(ests, chosen)

	for _, strat := range diffStrategies {
		for _, full := range []bool{true, false} {
			noIdxArms := []bool{false}
			if full {
				noIdxArms = []bool{false, true}
			}
			for _, vec := range []bool{true, false} {
				for _, noIdx := range noIdxArms {
					cfg := diffConfig(full, vec, noIdx, ests, limit)
					cq, cerr := runner.Compile(mkQuery(), env, strat, cfg)
					if cerr != nil {
						if strict {
							return optimized, vectorized, indexed, fmt.Errorf("%s (full=%t, vec=%t, noidx=%t) does not compile: %v\n%s",
								strat, full, vec, noIdx, cerr, nrc.Print(q))
						}
						return optimized, vectorized, indexed, errSkip
					}
					if full && vec && !noIdx && cq.Opt.Total() > 0 {
						optimized++
					}
					if cq.Idx.Planned > 0 {
						if noIdx {
							return optimized, vectorized, indexed, fmt.Errorf(
								"%s planned %d index scans with NoIndexScan set\n%s", strat, cq.Idx.Planned, nrc.Print(q))
						}
						indexed++
					}
					res := cq.Execute(context.Background(), inputs, runner.NewRunContext(cfg, cq.Strategy))
					if res.Failed() {
						return optimized, vectorized, indexed, fmt.Errorf("%s (full=%t, vec=%t, noidx=%t) failed: %v\n%s",
							strat, full, vec, noIdx, res.Err, nrc.Print(q))
					}
					if vec && res.Metrics.VectorizedBatches > 0 {
						vectorized++
					}
					got, gerr := nestedOutput(cq, res)
					if gerr != nil {
						return optimized, vectorized, indexed, fmt.Errorf("%s (full=%t, vec=%t, noidx=%t) unshred: %v\n%s",
							strat, full, vec, noIdx, gerr, nrc.Print(q))
					}
					if !value.Equal(got, want) {
						return optimized, vectorized, indexed, fmt.Errorf(
							"%s (full=%t, vec=%t, noidx=%t, resolved %s, bcast=%d, idx-planned=%d) diverges from the nrc.Eval oracle\nquery:\n%s\ninputs: %s\n got: %s\nwant: %s\nexplain:\n%s",
							strat, full, vec, noIdx, cq.Strategy, limit, cq.Idx.Planned, nrc.Print(q), value.Format(value.Tuple{inputs["R"], inputs["S"]}),
							value.Format(got), value.Format(want), cq.Explain())
					}
				}
			}
		}
	}
	return optimized, vectorized, indexed, nil
}

// errSkip marks an uncompilable fuzz-generated query (tolerated only in the
// fuzz target; the curated seeds of TestDifferentialOracle must all compile).
var errSkip = fmt.Errorf("skip")

// seedBytes derives a deterministic byte stream per seed (same scheme as the
// parser fuzz seeds, longer so deep queries draw enough entropy).
func seedBytes(seed int) []byte {
	data := make([]byte, 96)
	for i := range data {
		data[i] = byte((seed*131 + i*17 + i*i*3) % 256)
	}
	return data
}

// TestDifferentialOracle is the headline soundness gate: 300 generated
// queries × (7 strategies + AUTO) × {full, ablated} × {vectorized,
// row-only} × {indexed, NoIndexScan}, every run compared against the
// reference evaluator. Runs under -race in CI.
func TestDifferentialOracle(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 60
	}
	optimized, vectorized, indexed := 0, 0, 0
	for seed := 0; seed < n; seed++ {
		opt, vec, idx, err := runDifferential(seedBytes(seed), true)
		optimized += opt
		vectorized += vec
		indexed += idx
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	// The harness must actually exercise the optimizer, not vacuously pass
	// on plans it never changes.
	if optimized < n/4 {
		t.Fatalf("only %d/%d×8 optimized runs changed a plan — generator no longer exercises the optimizer", optimized, n)
	}
	// Likewise the vectorized half of the matrix must actually run columnar
	// batches, not silently fall back to the row interpreter everywhere.
	if vectorized < n/4 {
		t.Fatalf("only %d/%d×16 vectorized runs executed a columnar batch — generator no longer exercises the vectorizer", vectorized, n)
	}
	// And the index arm must actually plan index scans, not vacuously agree
	// because no generated predicate ever hit an indexed column.
	if indexed < n/4 {
		t.Fatalf("only %d runs planned an index scan across %d seeds — generator no longer exercises index planning", indexed, n)
	}
	t.Logf("%d queries × 48 runs agreed with the oracle; optimizer changed plans in %d runs; %d runs executed columnar batches; %d runs planned index scans", n, optimized, vectorized, indexed)
}

// TestAnalyzeStableAcrossRoutes re-runs a sampled subset of the differential
// seeds with per-operator instrumentation enabled across the {vectorized,
// row-only} × {indexed, index-ablated} matrix and checks that EXPLAIN ANALYZE
// is an observation, not an intervention: every combination still agrees with
// the oracle, the root operator's measured actual_rows equals the oracle
// cardinality in every combination, and the analyzed explain text renders the
// runtime annotations.
func TestAnalyzeStableAcrossRoutes(t *testing.T) {
	step := 25
	if testing.Short() {
		step = 75
	}
	checked, measuredRoots := 0, 0
	for seed := 0; seed < 300; seed += step {
		data := seedBytes(seed)
		env := diffEnv()
		g := &dgen{data: data}
		inputs := g.dataset()
		limit := diffBroadcastLimits[g.n(len(diffBroadcastLimits))]
		chosen := g.chooseIndexes()
		queryAt := g.i
		mkQuery := func() nrc.Expr {
			qg := &dgen{data: data, i: queryAt}
			return qg.query()
		}

		want, err := oracleEval(mkQuery(), env, inputs)
		if err != nil {
			t.Fatalf("seed %d: oracle: %v", seed, err)
		}
		ests := collectDiffStats(env, inputs)
		applyIndexes(ests, chosen)

		for _, vec := range []bool{true, false} {
			for _, noIdx := range []bool{false, true} {
				cfg := diffConfig(true, vec, noIdx, ests, limit)
				cq, cerr := runner.Compile(mkQuery(), env, runner.Standard, cfg)
				if cerr != nil {
					t.Fatalf("seed %d (vec=%t, noidx=%t): compile: %v", seed, vec, noIdx, cerr)
				}
				a := plan.NewAnalysis()
				res := cq.ExecuteWithOpts(context.Background(), inputs,
					runner.NewRunContext(cfg, cq.Strategy), runner.ExecOptions{Analysis: a})
				if res.Failed() {
					t.Fatalf("seed %d (vec=%t, noidx=%t): %v", seed, vec, noIdx, res.Err)
				}
				got, gerr := nestedOutput(cq, res)
				if gerr != nil {
					t.Fatalf("seed %d (vec=%t, noidx=%t): %v", seed, vec, noIdx, gerr)
				}
				if !value.Equal(got, want) {
					t.Fatalf("seed %d (vec=%t, noidx=%t): instrumented run diverges from the oracle\n got: %s\nwant: %s",
						seed, vec, noIdx, value.Format(got), value.Format(want))
				}
				// Only measured roots are held to the oracle cardinality;
				// a plan whose root the executor never instrumented (e.g. a
				// pure leaf) renders without the check.
				if ns := res.Analyze.Lookup(cq.Plan); ns != nil {
					if actual := ns.RowsOut.Load(); actual != int64(len(want)) {
						t.Fatalf("seed %d (vec=%t, noidx=%t): root actual_rows=%d, oracle cardinality=%d",
							seed, vec, noIdx, actual, len(want))
					}
					measuredRoots++
				}
				if text := cq.ExplainAnalyze(res); !strings.Contains(text, "[actual_rows=") {
					t.Fatalf("seed %d (vec=%t, noidx=%t): analyzed explain carries no runtime annotation:\n%s",
						seed, vec, noIdx, text)
				}
				checked++
			}
		}
	}
	if measuredRoots < checked/2 {
		t.Fatalf("only %d/%d runs had a measured root operator — instrumentation no longer covers the generated plans", measuredRoots, checked)
	}
	t.Logf("%d instrumented runs matched the oracle; %d had measured roots with stable actual_rows", checked, measuredRoots)
}

// FuzzDifferential lets the fuzzer drive the generator byte stream directly.
// Queries the generator derives are well-typed by construction; any oracle
// divergence is a real bug.
func FuzzDifferential(f *testing.F) {
	f.Add(seedBytes(0))
	f.Add(seedBytes(7))
	f.Add(seedBytes(42))
	f.Add([]byte{})
	f.Add([]byte{255, 1, 254, 3, 252, 7, 248, 15, 240, 31, 224, 63, 192, 127, 128})
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, _, _, err := runDifferential(data, false); err != nil {
			if err == errSkip {
				t.Skip("generated query outside the compilable fragment")
			}
			t.Fatal(err)
		}
	})
}
