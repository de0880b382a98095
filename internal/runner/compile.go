package runner

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"github.com/trance-go/trance/internal/core"
	"github.com/trance-go/trance/internal/dataflow"
	"github.com/trance-go/trance/internal/exec"
	"github.com/trance-go/trance/internal/index"
	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/plan"
	"github.com/trance-go/trance/internal/shred"
	"github.com/trance-go/trance/internal/trace"
	"github.com/trance-go/trance/internal/value"
)

// Compiled holds every compile-time artifact of one (query, environment,
// strategy, config) combination: the pruned standard plan, or the
// materialized shredded program with its compiled statements and (for
// unshredding strategies) the pruned unshred plan. A Compiled is immutable
// after Compile returns and safe to Execute from many goroutines at once
// over different inputs — plan operators and their scalar expressions are
// pure, and every run gets its own executor and dataflow context.
type Compiled struct {
	Strategy Strategy
	Cfg      Config
	Env      nrc.Env

	// Requested is the strategy Compile was asked for. It differs from
	// Strategy only when it was Auto: Strategy then holds the concrete route
	// ChooseStrategy resolved, and AutoReasons records why.
	Requested   Strategy
	AutoReasons []string

	// Plan is the algebraic plan of the standard routes (nil when shredded).
	Plan plan.Op
	// Mat is the materialized shredded program (shredded routes only).
	Mat *shred.Materialized
	// Stmts are the compiled assignments of the shredded program.
	Stmts []core.CompiledStmt
	// Unshred is the pruned plan restoring nested output (unshredding
	// strategies only).
	Unshred plan.Op

	// RawPlan, RawStmts and RawUnshred keep the pre-optimizer plans so
	// Explain can show before/after diffs. They alias the optimized fields
	// when the optimizer is disabled (Config.NoPredicatePushdown).
	RawPlan    plan.Op
	RawStmts   []core.CompiledStmt
	RawUnshred plan.Op
	// Opt accumulates the optimizer's rule-hit counters over every plan of
	// this compilation.
	Opt plan.OptStats
	// Vec accumulates the vectorizer's verdicts over every plan of this
	// compilation (zero when Config.NoVectorize skipped annotation).
	Vec plan.VecStats
	// Idx accumulates the planner's Select→IndexScan conversions over every
	// plan of this compilation (zero when Config.NoIndexScan ablated them).
	Idx plan.IndexStats
}

// recoverTo converts a panic into an error carrying the stack, so malformed
// queries degrade to failed compilations/runs instead of crashing the
// process (the serving layer turns these into HTTP errors).
func recoverTo(err *error, what string) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("%s panicked: %v\n%s", what, r, debug.Stack())
	}
}

// Compile runs typechecking, (shredded) compilation and plan pruning for the
// strategy exactly once, producing an artifact that can be executed many
// times. Compile-time panics are converted into errors.
//
// Compile type-annotates the query's AST in place (nrc.Check); do not
// Compile the same expression tree from several goroutines concurrently —
// the prepared-query layer serializes its per-strategy compilations for
// this reason.
func Compile(q nrc.Expr, env nrc.Env, strat Strategy, cfg Config) (*Compiled, error) {
	return CompileStep(q, env, strat, cfg, "Q")
}

// CompileStep is Compile with an explicit materialization name for the
// shredded route. Pipeline steps need it: a step's materialized components
// are bound under topName (the step name), so later steps — compiled against
// shred.InputEnv(topName, …) — resolve them.
func CompileStep(q nrc.Expr, env nrc.Env, strat Strategy, cfg Config, topName string) (cq *Compiled, err error) {
	defer recoverTo(&err, "compile")
	if _, cerr := nrc.Check(q, env); cerr != nil {
		return nil, cerr
	}
	cq = &Compiled{Strategy: strat, Cfg: cfg, Env: env, Requested: strat}
	if strat == Auto {
		choice, cerr := ChooseStrategy(q, env, cfg)
		if cerr != nil {
			return nil, cerr
		}
		cq.Strategy = choice.Strategy
		cq.AutoReasons = choice.Reasons
	}
	if cq.Strategy.IsShredded() {
		err := cq.compileShredded(q, topName)
		if err == nil {
			countAutoChoice(cq)
			return cq, nil
		}
		if cq.Requested != Auto {
			return nil, err
		}
		// Auto picked a shredded route the shredding compiler cannot handle
		// (e.g. an unsupported operator): fall back to the standard variant
		// with the same skew-awareness rather than failing the query.
		cq.AutoReasons = append(cq.AutoReasons,
			fmt.Sprintf("shredded route unavailable (%v); falling back to the standard variant", err))
		if cq.Strategy.skewAware() {
			cq.Strategy = StandardSkew
		} else {
			cq.Strategy = Standard
		}
		cq.Mat, cq.Stmts, cq.RawStmts, cq.Unshred, cq.RawUnshred = nil, nil, nil, nil, nil
	}
	if err := cq.compileStandard(q); err != nil {
		return nil, err
	}
	countAutoChoice(cq)
	return cq, nil
}

func countAutoChoice(cq *Compiled) {
	if cq.Requested == Auto {
		autoChoices[cq.Strategy].Add(1)
	}
}

// annotate applies the cost model (plan.Annotate) when table statistics are
// available and the ablation knob is off. Shredded component scans carry no
// statistics, so annotation is a no-op for most shredded-plan internals — a
// documented limitation (docs/COSTMODEL.md).
func (cq *Compiled) annotate(op plan.Op) plan.Op {
	if cq.Cfg.NoCostModel || len(cq.Cfg.Stats) == 0 {
		return op
	}
	out, ist := plan.AnnotateOpts(op, cq.Cfg.Stats, plan.AnnotateOptions{
		BroadcastLimit: cq.Cfg.BroadcastLimit,
		NoIndexScan:    cq.Cfg.NoIndexScan,
	})
	cq.Idx.Add(ist)
	return out
}

func (cq *Compiled) compileStandard(q nrc.Expr) error {
	c, err := core.NewCompiler(cq.Env)
	if err != nil {
		return err
	}
	c.NoPrune = cq.Cfg.NoColumnPruning
	op, err := c.Compile(q)
	if err != nil {
		return fmt.Errorf("compile: %w", err)
	}
	cq.RawPlan = op
	cq.Plan = cq.annotate(cq.optimize(op))
	cq.vectorize(cq.Plan, cq.RawPlan)
	return nil
}

// vectorize records the vectorizer's per-operator verdicts on a finished plan
// (rendered by Explain, counted in /metrics) unless the ablation knob is on.
// The executor consults the same compiler at run time, so the annotation is
// exactly what ExecuteRows will do. The pre-optimizer copy kept for Explain
// diffs is annotated too (without counting), so before/after trees compare
// under the same notation.
func (cq *Compiled) vectorize(op, raw plan.Op) {
	if cq.Cfg.NoVectorize || op == nil {
		return
	}
	cq.Vec.Add(exec.AnnotateVectorize(op))
	if raw != nil && raw != op {
		exec.AnnotateVectorizeQuiet(raw)
	}
}

// optimize runs the rule-based plan optimizer (predicate pushdown, select
// fusion, constant folding) unless the ablation flag disables it, folding the
// rule-hit counters into cq.Opt.
func (cq *Compiled) optimize(op plan.Op) plan.Op {
	if cq.Cfg.NoPredicatePushdown {
		return op
	}
	out, st := plan.Optimize(op)
	cq.Opt.Add(st)
	return out
}

func (cq *Compiled) compileShredded(q nrc.Expr, topName string) error {
	mat, err := shred.ShredQuery(q, cq.Env, topName, shred.Options{DomainElimination: cq.Cfg.DomainElimination})
	if err != nil {
		return fmt.Errorf("shredding: %w", err)
	}
	cq.Mat = mat

	// Compiler environment: shredded components of every input.
	cenv := nrc.Env{}
	for name, t := range cq.Env {
		b, ok := t.(nrc.BagType)
		if !ok {
			return fmt.Errorf("input %s is not a bag", name)
		}
		ienv, err := shred.InputEnv(name, b)
		if err != nil {
			return err
		}
		for k, v := range ienv {
			cenv[k] = v
		}
	}
	c, err := core.NewCompiler(cenv)
	if err != nil {
		return err
	}
	c.NoPrune = cq.Cfg.NoColumnPruning
	stmts, err := c.CompileProgram(mat.Program)
	if err != nil {
		return fmt.Errorf("compile shredded: %w", err)
	}
	cq.RawStmts = stmts
	cq.Stmts = make([]core.CompiledStmt, len(stmts))
	for i, st := range stmts {
		cq.Stmts[i] = core.CompiledStmt{Name: st.Name, Plan: cq.annotate(cq.optimize(st.Plan))}
		cq.vectorize(cq.Stmts[i].Plan, st.Plan)
	}

	if cq.Strategy.unshreds() {
		uplan, err := shred.BuildUnshredPlan(mat)
		if err != nil {
			return fmt.Errorf("unshred plan: %w", err)
		}
		if !cq.Cfg.NoColumnPruning {
			uplan = plan.Prune(uplan)
		}
		cq.RawUnshred = uplan
		cq.Unshred = cq.annotate(cq.optimize(uplan))
		cq.vectorize(cq.Unshred, cq.RawUnshred)
	}
	return nil
}

// NewRunContext builds the dataflow context Run uses for one execution under
// the config and strategy. Callers serving concurrent requests attach a
// shared worker pool (ctx.SharedPool) before executing.
func NewRunContext(cfg Config, strat Strategy) *dataflow.Context {
	ctx := dataflow.NewContext(cfg.Parallelism)
	ctx.Workers = cfg.Workers
	ctx.MaxPartitionBytes = cfg.MaxPartitionBytes
	ctx.BroadcastLimit = cfg.BroadcastLimit
	if strat == SparkSQLStyle {
		ctx.DisableGuarantees = true
	}
	return ctx
}

// InputRows converts nested inputs into the engine rows Execute binds:
// top-level rows for standard routes, value-shredded component rows for
// shredded routes. The conversion depends only on the route and the input
// environment, so callers evaluating a fixed dataset repeatedly (a serving
// process) compute it once and pass the result to ExecuteRows. The returned
// rows are never mutated by the engine and may be shared by any number of
// concurrent executions.
func (cq *Compiled) InputRows(inputs map[string]value.Bag) (map[string][]dataflow.Row, error) {
	rows := map[string][]dataflow.Row{}
	for name, b := range inputs {
		comps, err := cq.InputRowsOne(name, b)
		if err != nil {
			return nil, err
		}
		for comp, rs := range comps {
			rows[comp] = rs
		}
	}
	return rows, nil
}

// InputRowsOne converts a single named input into its engine datasets: one
// entry under the input's own name for non-shredded strategies, the
// value-shredded dictionary components for shredded ones. The result
// depends only on (name, bag, declared type, route kind), so callers
// evaluating many queries over the same dataset may convert once per route
// and share the rows (see trance.Session).
func (cq *Compiled) InputRowsOne(name string, b value.Bag) (rows map[string][]dataflow.Row, err error) {
	defer recoverTo(&err, "input preparation")
	if !cq.Strategy.IsShredded() {
		return map[string][]dataflow.Row{name: rowsOf(b)}, nil
	}
	bt, ok := cq.Env[name].(nrc.BagType)
	if !ok {
		return nil, fmt.Errorf("input %s is not a bag", name)
	}
	si, err := shred.ShredInput(name, b, bt)
	if err != nil {
		return nil, err
	}
	rows = map[string][]dataflow.Row{}
	for comp, ts := range si.Rows {
		rows[comp] = tuplesToRows(ts)
	}
	return rows, nil
}

// Execute evaluates the compiled artifacts over one set of inputs on the
// given dataflow context: InputRows + ExecuteRows. It never shares mutable
// state with other executions of the same Compiled, so any number may run
// concurrently; panics anywhere in execution degrade to Result.Err. The
// context's cancellation is honored between statements (best effort — an
// individual statement runs to completion).
func (cq *Compiled) Execute(ctx context.Context, inputs map[string]value.Bag, dctx *dataflow.Context) *Result {
	return cq.ExecuteWithOpts(ctx, inputs, dctx, ExecOptions{})
}

// ExecuteWithOpts is Execute with observability options.
func (cq *Compiled) ExecuteWithOpts(ctx context.Context, inputs map[string]value.Bag, dctx *dataflow.Context, opts ExecOptions) *Result {
	rows, err := cq.InputRows(inputs)
	if err != nil {
		return &Result{Strategy: cq.Strategy, Mat: cq.Mat, Err: err, Metrics: dctx.Metrics.Snapshot()}
	}
	return cq.ExecuteRowsOpts(ctx, rows, cq.BuildIndexes(inputs), dctx, opts)
}

// BuildIndexes constructs secondary-index sets for every input column the
// compile-time statistics flag as indexed, keyed for this compilation's route
// (see MapIndexes). It returns nil when no plan of this compilation carries
// an IndexScan, so callers without index scans pay nothing. Serving callers
// reuse the catalog's persistent indexes instead (see trance.Session);
// IndexScan degrades to a full scan plus its span predicate when executed
// without them, so passing nil is always sound.
func (cq *Compiled) BuildIndexes(inputs map[string]value.Bag) map[string]*index.Set {
	if cq.Idx.Planned == 0 {
		return nil
	}
	var byDataset map[string]*index.Set
	for name, b := range inputs {
		te, ok := cq.Cfg.Stats[name]
		if !ok {
			continue
		}
		bt, isBag := cq.Env[name].(nrc.BagType)
		if !isBag {
			continue
		}
		var set *index.Set
		for colName, ce := range te.Cols {
			if !ce.IndexHash && !ce.IndexOrdered {
				continue
			}
			off := colOffset(bt, colName)
			if off < 0 {
				continue
			}
			vals := make([]value.Value, len(b))
			for i, e := range b {
				if t, isT := e.(value.Tuple); isT {
					vals[i] = t[off]
				} else {
					vals[i] = e
				}
			}
			ci, err := index.Build(colName, ce.IndexHash, ce.IndexOrdered, vals)
			if err != nil {
				continue
			}
			if set == nil {
				set = index.NewSet()
			}
			set.Put(ci)
		}
		if set != nil {
			if byDataset == nil {
				byDataset = map[string]*index.Set{}
			}
			byDataset[name] = set
		}
	}
	return cq.MapIndexes(byDataset)
}

// colOffset finds a top-level scalar column's tuple offset ("_value" for
// scalar-element bags).
func colOffset(bt nrc.BagType, col string) int {
	if tt, ok := bt.Elem.(nrc.TupleType); ok {
		for i, f := range tt.Fields {
			if f.Name == col {
				return i
			}
		}
		return -1
	}
	if col == "_value" {
		return 0
	}
	return -1
}

// MapIndexes re-keys per-dataset index sets for this compilation's route:
// dataset names on standard routes, shredded top-component names on shredded
// routes. The mapping is sound because value shredding preserves top-level
// row order and keeps scalar columns in place (bags become labels), so the
// positions and keys of a dataset index address the top dictionary's rows
// verbatim.
func (cq *Compiled) MapIndexes(byDataset map[string]*index.Set) map[string]*index.Set {
	if len(byDataset) == 0 {
		return nil
	}
	if !cq.Strategy.IsShredded() {
		return byDataset
	}
	out := make(map[string]*index.Set, len(byDataset))
	for name, s := range byDataset {
		out[shred.MatName(name, nil)] = s
	}
	return out
}

// ExecuteRows is Execute over pre-converted input rows (see InputRows).
// Input preparation stays outside the timed region either way — the paper
// reports runtime after caching all inputs.
func (cq *Compiled) ExecuteRows(ctx context.Context, rows map[string][]dataflow.Row, dctx *dataflow.Context) *Result {
	return cq.ExecuteRowsIndexed(ctx, rows, nil, dctx)
}

// ExecuteRowsIndexed is ExecuteRows with bound secondary indexes, keyed like
// rows (see MapIndexes). IndexScan nodes resolve spans against them; inputs
// without a usable entry fall back to full scans plus the span predicate.
func (cq *Compiled) ExecuteRowsIndexed(ctx context.Context, rows map[string][]dataflow.Row, idxs map[string]*index.Set, dctx *dataflow.Context) *Result {
	return cq.ExecuteRowsOpts(ctx, rows, idxs, dctx, ExecOptions{})
}

// ExecOptions carries per-execution observability hooks.
type ExecOptions struct {
	// Analysis, when non-nil, collects per-operator runtime statistics
	// (EXPLAIN ANALYZE) into the given collector; the Result carries it as
	// Result.Analyze. Nil leaves execution uninstrumented.
	Analysis *plan.Analysis
	// Span, when non-nil, receives per-statement execute child spans.
	Span *trace.Span
}

// ExecuteRowsOpts is ExecuteRowsIndexed with observability options.
func (cq *Compiled) ExecuteRowsOpts(ctx context.Context, rows map[string][]dataflow.Row, idxs map[string]*index.Set, dctx *dataflow.Context, opts ExecOptions) *Result {
	res := &Result{Strategy: cq.Strategy, Mat: cq.Mat, Analyze: opts.Analysis}
	func() {
		var err error
		defer func() {
			if err != nil && res.Err == nil {
				res.Err = err
			}
		}()
		defer recoverTo(&err, "execute")
		ex := exec.New(dctx)
		ex.SkewAware = cq.Strategy.skewAware()
		ex.Vectorize = !cq.Cfg.NoVectorize
		ex.Indexes = idxs
		ex.Analysis = opts.Analysis
		for name, r := range rows {
			ex.BindRows(name, r)
		}
		cq.runOn(ctx, ex, res, opts.Span)
	}()
	res.Metrics = dctx.Metrics.Snapshot()
	return res
}

// runOn evaluates the compiled plans on an existing executor. Pipelines use
// it to share one executor (and therefore the bindings of prior steps'
// outputs) across the steps of a run. sp, when non-nil, receives one child
// span per executed statement.
func (cq *Compiled) runOn(ctx context.Context, ex *exec.Executor, res *Result, sp *trace.Span) {
	if cq.Strategy.IsShredded() {
		cq.executeShredded(ctx, ex, res, sp)
	} else {
		cq.executeStandard(ctx, ex, res, sp)
	}
}

func (cq *Compiled) executeStandard(ctx context.Context, ex *exec.Executor, res *Result, sp *trace.Span) {
	if err := ctx.Err(); err != nil {
		res.Err = err
		return
	}

	start := time.Now()
	ssp := sp.Child("execute plan")
	out, err := ex.Run(cq.Plan)
	if err == nil {
		out.Force() // charge trailing fused narrow work to the timed region
		err = out.Err()
	}
	ssp.End()
	res.Elapsed = time.Since(start)
	if err != nil {
		res.Err = err
		return
	}
	res.Output = out
}

func (cq *Compiled) executeShredded(ctx context.Context, ex *exec.Executor, res *Result, sp *trace.Span) {
	start := time.Now()
	outs := map[string]*dataflow.Dataset{}
	for _, st := range cq.Stmts {
		if err := ctx.Err(); err != nil {
			res.Elapsed = time.Since(start)
			res.Err = err
			return
		}
		ssp := sp.Child("execute " + st.Name)
		d, err := ex.Run(st.Plan)
		if err == nil {
			ex.Bind(st.Name, d) // forces once for all downstream consumers
			err = d.Err()
		}
		ssp.End()
		if err != nil {
			res.Elapsed = time.Since(start)
			res.Err = fmt.Errorf("assignment %s: %w", st.Name, err)
			return
		}
		outs[st.Name] = d
	}
	res.Shredded = outs
	res.Output = outs[cq.Mat.TopName]

	if cq.Strategy.unshreds() {
		if err := ctx.Err(); err != nil {
			res.Elapsed = time.Since(start)
			res.Err = err
			return
		}
		ssp := sp.Child("execute unshred")
		out, err := ex.Run(cq.Unshred)
		if err == nil {
			out.Force()
			err = out.Err()
		}
		ssp.End()
		res.Elapsed = time.Since(start)
		if err != nil {
			res.Err = err
			return
		}
		res.Output = out
		return
	}
	res.Elapsed = time.Since(start)
}

// OutputPlan returns the plan whose column schema matches the Output dataset
// Execute produces: the standard plan, the unshred plan, or the shredded
// program's top assignment.
func (cq *Compiled) OutputPlan() plan.Op {
	switch {
	case cq.Plan != nil:
		return cq.Plan
	case cq.Unshred != nil:
		return cq.Unshred
	default:
		for _, st := range cq.Stmts {
			if st.Name == cq.Mat.TopName {
				return st.Plan
			}
		}
	}
	return nil
}
