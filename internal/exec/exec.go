// Package exec binds algebraic plans to the dataflow engine: every plan
// operator becomes a bulk operation over distributed Datasets, implementing
// the code-generation stage of the paper (Section 3) with the NULL-casting Γ
// semantics and partitioning-guarantee handling. Narrow plan operators
// (Select, Extend, Project) map to the engine's fused lazy operators, so
// chains of them execute as one pipelined pass per partition, consumed by
// wide operators (Join, Nest, Dedup, BagToDict) at shuffle boundaries.
// Unnest also maps to a fused FlatMap but is materialized immediately by the
// CheckMemory call that models in-place flattening pressure, so fusion
// always terminates there. The skew-aware variants of Section 5 live in
// skew.go.
package exec

import (
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"github.com/trance-go/trance/internal/core"
	"github.com/trance-go/trance/internal/dataflow"
	"github.com/trance-go/trance/internal/index"
	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/plan"
	"github.com/trance-go/trance/internal/value"
)

// Executor runs plans against named inputs on a dataflow context.
type Executor struct {
	Ctx    *dataflow.Context
	Inputs map[string]*dataflow.Dataset
	// Indexes holds the secondary-index sets of bound inputs, keyed like
	// Inputs. IndexScan nodes resolve their spans here; a missing or
	// incompatible entry degrades to a full scan plus the span predicate.
	Indexes map[string]*index.Set
	// SkewAware enables the skew-resilient operator implementations of
	// paper Section 5 for joins and BagToDict.
	SkewAware bool
	// Vectorize routes narrow operators whose expressions compile to vector
	// kernels (see vector.go) through the engine's columnar batch stages.
	// Results are bit-identical to the row interpreter either way.
	Vectorize bool
	// Analysis, when non-nil, collects per-operator runtime statistics
	// (EXPLAIN ANALYZE): narrow operators wrap their fused closures with row
	// and wall counters, wide operators record their dataflow stage name and
	// output cardinality. Nil keeps the execution path untouched apart from
	// per-batch nil checks.
	Analysis *plan.Analysis

	// raw retains the row slices of BindRows inputs: index positions address
	// rows by offset, so IndexScan gathers from the original slice.
	raw   map[string][]dataflow.Row
	stage int
}

// New creates an executor over the given context.
func New(ctx *dataflow.Context) *Executor {
	return &Executor{Ctx: ctx, Inputs: map[string]*dataflow.Dataset{}, raw: map[string][]dataflow.Row{}}
}

// Bind registers a named input dataset. The dataset is forced first: a named
// input may be scanned by several downstream plans, and materializing once
// here keeps each of them from re-running the name's pending fused chain.
func (ex *Executor) Bind(name string, d *dataflow.Dataset) { ex.Inputs[name] = d.Force() }

// BindRows registers a named input from raw rows.
func (ex *Executor) BindRows(name string, rows []dataflow.Row) {
	ex.Inputs[name] = ex.Ctx.FromRows(rows)
	ex.raw[name] = rows
}

func (ex *Executor) nextStage(kind string) string {
	ex.stage++
	return fmt.Sprintf("%s#%d", kind, ex.stage)
}

// Run evaluates a plan and returns the resulting dataset. Driver-side panics
// (malformed plans, type confusion while building operators) are converted
// into errors; panics inside partition tasks are already converted by the
// dataflow layer, so no query can crash the process through this entry
// point.
func (ex *Executor) Run(op plan.Op) (d *dataflow.Dataset, err error) {
	defer func() {
		if r := recover(); r != nil {
			d, err = nil, fmt.Errorf("exec: panic evaluating plan: %v\n%s", r, debug.Stack())
		}
	}()
	if ex.SkewAware {
		st, err := ex.runSkew(op)
		if err != nil {
			return nil, err
		}
		return st.merge(), nil
	}
	return ex.run(op)
}

// RunProgram executes compiled assignments in order, binding each result for
// later statements, and returns every assignment's dataset.
func (ex *Executor) RunProgram(stmts []core.CompiledStmt) (map[string]*dataflow.Dataset, error) {
	out := map[string]*dataflow.Dataset{}
	for _, st := range stmts {
		d, err := ex.Run(st.Plan)
		if err == nil {
			ex.Bind(st.Name, d)
			err = d.Err() // Bind forces; surface a poisoned dataset now
		}
		if err != nil {
			return nil, fmt.Errorf("assignment %s: %w", st.Name, err)
		}
		out[st.Name] = d
	}
	return out, nil
}

func (ex *Executor) run(op plan.Op) (*dataflow.Dataset, error) {
	switch x := op.(type) {
	case *plan.Scan:
		d, ok := ex.Inputs[x.Input]
		if !ok {
			return nil, fmt.Errorf("exec: unbound input %q", x.Input)
		}
		if ns := ex.node(x); ns != nil {
			ns.RowsOut.Add(d.Count()) // bound inputs are materialized; Count is cheap
		}
		return d, nil

	case *plan.Values:
		rows := make([]dataflow.Row, len(x.Rows))
		copy(rows, x.Rows)
		if ns := ex.node(x); ns != nil {
			ns.RowsOut.Add(int64(len(rows)))
		}
		return ex.Ctx.FromRows(rows), nil

	case *plan.IndexScan:
		return ex.runIndexScan(x)

	case *plan.Select:
		in, err := ex.run(x.In)
		if err != nil {
			return nil, err
		}
		return ex.applySelect(in, x), nil

	case *plan.Extend:
		in, err := ex.run(x.In)
		if err != nil {
			return nil, err
		}
		return ex.applyExtend(in, x), nil

	case *plan.Project:
		in, err := ex.run(x.In)
		if err != nil {
			return nil, err
		}
		return ex.applyProject(in, x), nil

	case *plan.AddIndex:
		in, err := ex.run(x.In)
		if err != nil {
			return nil, err
		}
		out := in.AddUniqueID()
		if ns := ex.node(x); ns != nil {
			out = out.MapPreserving(countRows(ns))
		}
		return out, nil

	case *plan.Unnest:
		in, err := ex.run(x.In)
		if err != nil {
			return nil, err
		}
		ns := ex.node(x)
		out := applyUnnest(in, x, ns)
		// Flattening materially expands partitions in place: a worker
		// holding a large inner collection must hold its flattened form
		// (paper Section 6: flattening skewed inner collections saturates
		// worker memory).
		stage := ex.nextStage("unnest")
		if ns != nil {
			ns.Stage = stage
		}
		if err := out.CheckMemory(stage); err != nil {
			return nil, err
		}
		return out, nil

	case *plan.Join:
		l, err := ex.run(x.L)
		if err != nil {
			return nil, err
		}
		r, err := ex.run(x.R)
		if err != nil {
			return nil, err
		}
		return ex.recordWide(x)(ex.join(l, r, x))

	case *plan.Nest:
		in, err := ex.run(x.In)
		if err != nil {
			return nil, err
		}
		return ex.recordWide(x)(ex.nest(in, x))

	case *plan.DedupOp:
		in, err := ex.run(x.In)
		if err != nil {
			return nil, err
		}
		stage := ex.nextStage("dedup")
		if ns := ex.node(x); ns != nil {
			ns.Stage = stage
		}
		return ex.recordWide(x)(in.Distinct(stage))

	case *plan.UnionAll:
		l, err := ex.run(x.L)
		if err != nil {
			return nil, err
		}
		r, err := ex.run(x.R)
		if err != nil {
			return nil, err
		}
		u := l.Union(r)
		return ex.recordWide(x)(u, u.Err())

	case *plan.BagToDict:
		in, err := ex.run(x.In)
		if err != nil {
			return nil, err
		}
		stage := ex.nextStage("bagToDict")
		if ns := ex.node(x); ns != nil {
			ns.Stage = stage
		}
		return ex.recordWide(x)(in.RepartitionBy(stage, []int{x.LabelCol}))
	}
	return nil, fmt.Errorf("exec: unknown operator %T", op)
}

// runIndexScan resolves an IndexScan's spans against the input's bound
// secondary index and gathers the matching rows by position. Without a usable
// index (none bound, wrong structure, or a row count mismatching the bound
// slice) it degrades to the full scan plus the node's Fallback predicate —
// the exact filter the spans were derived from — so plans carrying IndexScan
// nodes are runnable against any binding.
func (ex *Executor) runIndexScan(x *plan.IndexScan) (*dataflow.Dataset, error) {
	d, ok := ex.Inputs[x.Input]
	if !ok {
		return nil, fmt.Errorf("exec: unbound input %q", x.Input)
	}
	ns := ex.node(x)
	rows, haveRaw := ex.raw[x.Input]
	if ci := ex.Indexes[x.Input].Column(x.Col); ci != nil && haveRaw &&
		ci.Len() == len(rows) && ci.CanServe(x.Spans) {
		start := time.Now()
		matched := ci.Lookup(x.Spans)
		out := make([]dataflow.Row, len(matched))
		for i, p := range matched {
			out[i] = rows[p]
		}
		index.RecordScan(int64(len(out)))
		if ns != nil {
			ns.WallNS.Add(time.Since(start).Nanoseconds())
			ns.RowsIn.Add(int64(len(rows)))
			ns.RowsOut.Add(int64(len(out)))
			ns.IndexMatched.Add(int64(len(out)))
		}
		return ex.Ctx.FromRows(out), nil
	}
	index.RecordFallback()
	sel := &plan.Select{Pred: x.Fallback}
	if ns != nil {
		ns.IndexFallbacks.Add(1)
		// The fallback filter's work belongs to the IndexScan node the user
		// sees, not to the synthetic Select evaluating it.
		ex.Analysis.Alias(sel, x)
	}
	return ex.applySelect(d, sel), nil
}

// join dispatches between shuffle and broadcast joins; like Spark, inputs
// under the broadcast limit are broadcast automatically.
func (ex *Executor) join(l, r *dataflow.Dataset, x *plan.Join) (*dataflow.Dataset, error) {
	ns := ex.node(x)
	stage := func(kind string) string {
		s := ex.nextStage(kind)
		if ns != nil {
			ns.Stage = s
		}
		return s
	}
	rw := len(x.R.Columns())
	if len(x.LCols) == 0 {
		// Cross join: broadcast the right side.
		return l.BroadcastJoin(stage("cross"), r, nil, nil, rw, x.Outer)
	}
	if x.Cost != nil {
		// The cost model decided at plan time; honor it over the runtime
		// size heuristic (the two can disagree when estimates are off — the
		// differential oracle checks both paths stay sound).
		if x.Cost.Method == plan.JoinBroadcast {
			return l.BroadcastJoin(stage("bjoin"), r, x.LCols, x.RCols, rw, x.Outer)
		}
		return l.Join(stage("join"), r, x.LCols, x.RCols, rw, x.Outer)
	}
	if ex.Ctx.BroadcastLimit > 0 && r.SizeBytes() <= ex.Ctx.BroadcastLimit {
		return l.BroadcastJoin(stage("bjoin"), r, x.LCols, x.RCols, rw, x.Outer)
	}
	return l.Join(stage("join"), r, x.LCols, x.RCols, rw, x.Outer)
}

// arenaPool pools vectorized-stage scratch; one pool per stage keeps arena
// shapes (row width, slot count) consistent.
func arenaPool() *sync.Pool {
	return &sync.Pool{New: func() any { return &vecArena{} }}
}

func (ex *Executor) applySelect(in *dataflow.Dataset, x *plan.Select) *dataflow.Dataset {
	ns := ex.node(x)
	var prog vexpr
	if ex.Vectorize {
		prog, _ = compileVexpr(x.Pred)
	}
	if x.NullifyCols == nil {
		if prog != nil {
			pool := arenaPool()
			return in.FilterVec(func(rows []dataflow.Row) dataflow.Bitmap {
				start := batchTimer(ns)
				ar := pool.Get().(*vecArena)
				defer pool.Put(ar)
				vb := newVecBatchArena(rows, ar)
				vals, nulls, ok := evalBits(prog, vb)
				if !ok {
					// Dynamic types contradicted the schema for this batch:
					// row interpreter, same result.
					out := dataflow.NewBitmap(len(rows))
					for i, r := range rows {
						if b, _ := x.Pred.Eval(r).(bool); b {
							out.Set(i)
						}
					}
					batchDone(ns, start, len(rows), out.Count(), false)
					return out
				}
				// Always materialize a fresh bitmap: vals may be backed by the
				// arena (a bare bool column predicate), which goes back to the
				// pool before the caller reads the selection.
				out := dataflow.AndNotBitmap(vals, nulls, len(rows))
				batchDone(ns, start, len(rows), out.Count(), true)
				return out
			})
		}
		return in.Filter(instrPred(ns, func(r dataflow.Row) bool {
			b, _ := x.Pred.Eval(r).(bool)
			return b
		}))
	}
	nullify := func(r dataflow.Row) dataflow.Row {
		nr := make(dataflow.Row, len(r))
		copy(nr, r)
		for _, c := range x.NullifyCols {
			nr[c] = nil
		}
		return nr
	}
	if prog != nil {
		pool := arenaPool()
		return in.MapVecPreserving(func(rows []dataflow.Row) []dataflow.Row {
			start := batchTimer(ns)
			ar := pool.Get().(*vecArena)
			defer pool.Put(ar)
			vb := newVecBatchArena(rows, ar)
			out := make([]dataflow.Row, len(rows))
			vals, nulls, ok := evalBits(prog, vb)
			if !ok {
				for i, r := range rows {
					if b, _ := x.Pred.Eval(r).(bool); b {
						out[i] = r
					} else {
						out[i] = nullify(r)
					}
				}
				batchDone(ns, start, len(rows), len(out), false)
				return out
			}
			sel := dataflow.AndNotBitmap(vals, nulls, len(rows))
			for i, r := range rows {
				if sel.Get(i) {
					out[i] = r
				} else {
					out[i] = nullify(r)
				}
			}
			batchDone(ns, start, len(rows), len(out), true)
			return out
		})
	}
	return in.MapPreserving(instrMap(ns, func(r dataflow.Row) dataflow.Row {
		if b, _ := x.Pred.Eval(r).(bool); b {
			return r
		}
		return nullify(r)
	}))
}

func (ex *Executor) applyExtend(in *dataflow.Dataset, x *plan.Extend) *dataflow.Dataset {
	ns := ex.node(x)
	if ex.Vectorize {
		if outs, _ := compileOuts(x.Exprs); outs != nil {
			pool := arenaPool()
			return in.MapVecPreserving(func(rows []dataflow.Row) []dataflow.Row {
				start := batchTimer(ns)
				ar := pool.Get().(*vecArena)
				defer pool.Put(ar)
				res, kernel := extendBatch(newVecBatchArena(rows, ar), x, outs)
				batchDone(ns, start, len(rows), len(res), kernel)
				return res
			})
		}
	}
	return in.MapPreserving(instrMap(ns, func(r dataflow.Row) dataflow.Row {
		nr := make(dataflow.Row, len(r)+len(x.Exprs))
		copy(nr, r)
		for i, ne := range x.Exprs {
			nr[len(r)+i] = ne.Expr.Eval(r)
		}
		return nr
	}))
}

// extendBatch evaluates one batch of a vectorized Extend: kernel expressions
// compute whole columns first, then rows are assembled with direct copies for
// bare column/constant outputs. Falls back to per-row Eval if any column
// demoted; the second result reports whether the kernels held.
func extendBatch(vb *vecBatch, x *plan.Extend, outs []outExpr) ([]dataflow.Row, bool) {
	rows := vb.rows
	cols, ok := evalOutCols(vb, outs)
	res := make([]dataflow.Row, len(rows))
	for i, r := range rows {
		nr := make(dataflow.Row, len(r)+len(outs))
		copy(nr, r)
		for j, oe := range outs {
			switch {
			case !ok:
				nr[len(r)+j] = x.Exprs[j].Expr.Eval(r)
			case oe.kernel != nil:
				nr[len(r)+j] = cols[j].Get(i)
			case oe.copyIdx >= 0:
				nr[len(r)+j] = r[oe.copyIdx]
			default:
				nr[len(r)+j] = oe.rowExpr.Eval(r)
			}
		}
		res[i] = nr
	}
	return res, ok
}

func (ex *Executor) applyProject(in *dataflow.Dataset, x *plan.Project) *dataflow.Dataset {
	ns := ex.node(x)
	bagOut := make([]bool, len(x.Outs))
	for i, ne := range x.Outs {
		_, bagOut[i] = ne.Expr.Type().(nrc.BagType)
	}
	if ex.Vectorize {
		if outs, _ := compileOuts(x.Outs); outs != nil {
			pool := arenaPool()
			return in.MapVec(func(rows []dataflow.Row) []dataflow.Row {
				start := batchTimer(ns)
				ar := pool.Get().(*vecArena)
				defer pool.Put(ar)
				res, kernel := projectBatch(newVecBatchArena(rows, ar), x, outs, bagOut)
				batchDone(ns, start, len(rows), len(res), kernel)
				return res
			})
		}
	}
	return in.Map(instrMap(ns, func(r dataflow.Row) dataflow.Row {
		nr := make(dataflow.Row, len(x.Outs))
		for i, ne := range x.Outs {
			v := ne.Expr.Eval(r)
			if v == nil && x.CastBags && bagOut[i] {
				v = value.Bag{}
			}
			nr[i] = v
		}
		return nr
	}))
}

// projectBatch evaluates one batch of a vectorized Project, applying the
// NULL→empty-bag cast exactly like the row path. The second result reports
// whether the kernels held.
func projectBatch(vb *vecBatch, x *plan.Project, outs []outExpr, bagOut []bool) ([]dataflow.Row, bool) {
	rows := vb.rows
	cols, ok := evalOutCols(vb, outs)
	res := make([]dataflow.Row, len(rows))
	for i, r := range rows {
		nr := make(dataflow.Row, len(outs))
		for j, oe := range outs {
			var v value.Value
			switch {
			case !ok:
				v = x.Outs[j].Expr.Eval(r)
			case oe.kernel != nil:
				v = cols[j].Get(i)
			case oe.copyIdx >= 0:
				v = r[oe.copyIdx]
			default:
				v = oe.rowExpr.Eval(r)
			}
			if v == nil && x.CastBags && bagOut[j] {
				v = value.Bag{}
			}
			nr[j] = v
		}
		res[i] = nr
	}
	return res, ok
}

// evalOutCols runs every kernel output over the batch; ok=false reverts the
// whole batch to row evaluation.
func evalOutCols(vb *vecBatch, outs []outExpr) ([]dataflow.Column, bool) {
	cols := make([]dataflow.Column, len(outs))
	for j, oe := range outs {
		if oe.kernel == nil {
			continue
		}
		c, ok := oe.kernel.evalCol(vb)
		if !ok {
			return nil, false
		}
		cols[j] = c
	}
	return cols, true
}

func applyUnnest(in *dataflow.Dataset, x *plan.Unnest, ns *plan.NodeStats) *dataflow.Dataset {
	elems := x.ElemFields()
	width := len(x.In.Columns())
	scalarElem := len(elems) == 1 && elems[0].Name == "_value"
	return in.FlatMap(instrFlatMap(ns, func(r dataflow.Row) []dataflow.Row {
		bagV := r[x.BagCol]
		base := make(dataflow.Row, width)
		copy(base, r)
		base[x.BagCol] = nil // tombstone the unnested attribute
		bag, _ := bagV.(value.Bag)
		if len(bag) == 0 {
			if !x.Outer {
				return nil
			}
			nr := make(dataflow.Row, width+len(elems))
			copy(nr, base)
			return []dataflow.Row{nr}
		}
		out := make([]dataflow.Row, len(bag))
		for i, e := range bag {
			nr := make(dataflow.Row, width+len(elems))
			copy(nr, base)
			if scalarElem {
				nr[width] = e
			} else {
				et := e.(value.Tuple)
				copy(nr[width:], et)
			}
			out[i] = nr
		}
		return out
	}))
}

// nest implements Γ⊎ and Γ+ with the NULL-casting semantics of the paper:
// rows whose presence columns contain a NULL are phantoms introduced by outer
// operators; they register their group without contributing. Structural nests
// keep every group (empty bags); explicit nests below the root emit NULL
// marker rows for phantom-only groups; at the root those groups are dropped.
func (ex *Executor) nest(in *dataflow.Dataset, x *plan.Nest) (*dataflow.Dataset, error) {
	inCols := x.In.Columns()
	bagValue := make([]bool, len(x.ValueCols))
	for i, c := range x.ValueCols {
		_, bagValue[i] = inCols[c].Type.(nrc.BagType)
	}
	width := len(x.GroupCols) + len(x.CarryCols)
	var aggWidth int
	if x.Agg == plan.AggBag {
		aggWidth = 1
	} else {
		aggWidth = len(x.ValueCols)
	}

	present := func(r dataflow.Row) bool {
		for _, c := range x.PresenceCols {
			if r[c] == nil {
				return false
			}
		}
		return true
	}

	stage := ex.nextStage("nest")
	if ns := ex.node(x); ns != nil {
		ns.Stage = stage
	}
	out, err := in.GroupReduce(stage, x.GroupCols, func(rows []dataflow.Row) []dataflow.Row {
		nr := make(dataflow.Row, width+aggWidth)
		for i, c := range x.GroupCols {
			nr[i] = rows[0][c]
		}
		for j, c := range x.CarryCols {
			nr[len(x.GroupCols)+j] = rows[0][c]
		}

		hadReal := false
		if x.Agg == plan.AggBag {
			bag := value.Bag{}
			for _, r := range rows {
				if !present(r) {
					continue
				}
				hadReal = true
				if x.ScalarElem {
					bag = append(bag, r[x.ValueCols[0]])
					continue
				}
				elem := make(value.Tuple, len(x.ValueCols))
				for i, c := range x.ValueCols {
					v := r[c]
					if v == nil && bagValue[i] {
						v = value.Bag{}
					}
					elem[i] = v
				}
				bag = append(bag, elem)
			}
			switch {
			case hadReal:
				nr[width] = bag
			case x.Mode == plan.Structural:
				nr[width] = value.Bag{}
			case x.Mode == plan.ExplicitNested:
				nr[width] = nil // marker row
			default: // ExplicitRoot: drop phantom-only group
				return nil
			}
			return []dataflow.Row{nr}
		}

		// AggSum.
		sums := make([]value.Value, len(x.ValueCols))
		for _, r := range rows {
			if !present(r) {
				continue
			}
			hadReal = true
			for i, c := range x.ValueCols {
				v := r[c]
				if v == nil {
					continue // NULL contribution counts as zero
				}
				if sums[i] == nil {
					sums[i] = v
				} else {
					sums[i] = nrc.EvalArith(nrc.Add, sums[i], v)
				}
			}
		}
		if !hadReal {
			if x.Mode == plan.ExplicitRoot {
				return nil
			}
			// marker row: sums stay NULL
		} else {
			for i, c := range x.ValueCols {
				if sums[i] == nil {
					sums[i] = nrc.ZeroValue(inCols[c].Type)
				}
			}
		}
		copy(nr[width:], sums)
		return []dataflow.Row{nr}
	})
	if err != nil {
		return nil, err
	}
	keyPos := make([]int, len(x.GroupCols))
	for i := range keyPos {
		keyPos[i] = i
	}
	return out.WithPartitioner(keyPos), nil
}
