// Vectorized expression compilation: plan scalar expressions become trees of
// vector-kernel nodes evaluated over columnar batches (internal/dataflow
// column.go/batch.go). This file is the single authority on what vectorizes —
// AnnotateVectorize records its verdicts on the plan (rendered by Explain and
// aggregated into /metrics), and applySelect/applyExtend/applyProject consult
// the same compiler at bind time, so the annotation can never disagree with
// what the engine executes.
//
// Static types drive column layout; a batch whose dynamic values contradict
// them (a transposed column demotes to the boxed fallback) reverts that batch
// to the row interpreter, so results stay bit-identical in every case.
package exec

import (
	"fmt"
	"sync"

	"github.com/trance-go/trance/internal/dataflow"
	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/plan"
	"github.com/trance-go/trance/internal/value"
)

// scalarKind maps a static scalar type to its physical column kind.
func scalarKind(t nrc.Type) (dataflow.Kind, bool) {
	st, ok := t.(nrc.ScalarType)
	if !ok {
		return dataflow.KindBoxed, false
	}
	switch st.Kind {
	case nrc.Int:
		return dataflow.KindInt64, true
	case nrc.Real:
		return dataflow.KindFloat64, true
	case nrc.String:
		return dataflow.KindString, true
	case nrc.Bool:
		return dataflow.KindBool, true
	case nrc.DateK:
		return dataflow.KindDate, true
	}
	return dataflow.KindBoxed, false
}

// vecArena is the reusable scratch of one vectorized stage instance:
// transposed input columns (by column index), kernel output columns (by
// compile-time slot), and promotion buffers. Stages draw arenas from a
// sync.Pool per batch, so steady-state batches allocate almost nothing; an
// arena must not be returned to the pool while any bitmap or column backed
// by it is still referenced.
type vecArena struct {
	cols  []dataflow.Column
	done  []bool
	slots []dataflow.Column
	sc    dataflow.KernelScratch
}

func (a *vecArena) reset(width int) {
	if cap(a.cols) < width {
		a.cols = make([]dataflow.Column, width)
		a.done = make([]bool, width)
		return
	}
	a.cols = a.cols[:width]
	a.done = a.done[:width]
	for i := range a.done {
		a.done[i] = false
	}
}

// slot returns the scratch column for a compiled arithmetic node, growing on
// demand.
func (a *vecArena) slot(i int) *dataflow.Column {
	for len(a.slots) <= i {
		a.slots = append(a.slots, dataflow.Column{})
	}
	return &a.slots[i]
}

// vecBatch lazily transposes the columns one batch of rows actually
// references into the arena's scratch. ok turns false as soon as any
// transpose demotes to the boxed fallback (dynamic type contradicted the
// static schema).
type vecBatch struct {
	rows  []dataflow.Row
	width int
	arena *vecArena
}

// newVecBatch builds a batch with a private arena (annotation paths and
// tests); stages use newVecBatchArena with a pooled one.
func newVecBatch(rows []dataflow.Row) *vecBatch {
	return newVecBatchArena(rows, &vecArena{})
}

func newVecBatchArena(rows []dataflow.Row, a *vecArena) *vecBatch {
	width := 0
	if len(rows) > 0 {
		width = len(rows[0])
	}
	a.reset(width)
	return &vecBatch{rows: rows, width: width, arena: a}
}

func (vb *vecBatch) col(idx int, kind dataflow.Kind) (*dataflow.Column, bool) {
	if idx >= vb.width {
		return nil, false
	}
	c := &vb.arena.cols[idx]
	if !vb.arena.done[idx] {
		dataflow.TransposeColInto(c, vb.rows, idx, kind)
		vb.arena.done[idx] = true
	}
	return c, c.Kind == kind
}

// vexpr is one compiled vector-kernel node. evalCol returns the node's value
// as a column; ok=false demands a row-interpreter fallback for this batch.
type vexpr interface {
	evalCol(vb *vecBatch) (dataflow.Column, bool)
}

// boolVexpr is implemented by boolean-valued nodes that can produce raw
// bitmaps (vals plus a null mask) without boxing a bool column.
type boolVexpr interface {
	vexpr
	evalBits(vb *vecBatch) (vals, nulls dataflow.Bitmap, ok bool)
}

// evalBits evaluates any boolean-typed node to (vals, nulls) bitmaps.
func evalBits(e vexpr, vb *vecBatch) (dataflow.Bitmap, dataflow.Bitmap, bool) {
	if be, ok := e.(boolVexpr); ok {
		return be.evalBits(vb)
	}
	c, ok := e.evalCol(vb)
	if !ok || c.Kind != dataflow.KindBool {
		return nil, nil, false
	}
	return c.Bools, c.Nulls, true
}

// vcol reads an input column of the batch.
type vcol struct {
	idx  int
	kind dataflow.Kind
}

func (v *vcol) evalCol(vb *vecBatch) (dataflow.Column, bool) {
	c, ok := vb.col(v.idx, v.kind)
	if !ok {
		return dataflow.Column{}, false
	}
	return *c, true
}

func (v *vcol) evalBits(vb *vecBatch) (dataflow.Bitmap, dataflow.Bitmap, bool) {
	if v.kind != dataflow.KindBool {
		return nil, nil, false
	}
	c, ok := vb.col(v.idx, v.kind)
	if !ok {
		return nil, nil, false
	}
	return c.Bools, c.Nulls, true
}

// vconst materializes a plan constant as a column. The full-batch-size column
// is built once (behind a sync.Once — compiled programs are shared by
// concurrent partition tasks) and reused; odd-sized tail batches rebuild.
type vconst struct {
	kind dataflow.Kind
	val  value.Value
	once sync.Once
	full dataflow.Column
}

func (v *vconst) colFor(n int) dataflow.Column {
	if n == dataflow.BatchSize {
		v.once.Do(func() { v.full = dataflow.ConstColumn(v.kind, v.val, n) })
		return v.full
	}
	return dataflow.ConstColumn(v.kind, v.val, n)
}

func (v *vconst) evalCol(vb *vecBatch) (dataflow.Column, bool) {
	return v.colFor(len(vb.rows)), true
}

// vfalse is a comparison against a NULL constant: always false, never NULL.
type vfalse struct{}

func (vfalse) evalCol(vb *vecBatch) (dataflow.Column, bool) {
	return dataflow.BoolColumn(dataflow.NewBitmap(len(vb.rows)), len(vb.rows)), true
}

func (vfalse) evalBits(vb *vecBatch) (dataflow.Bitmap, dataflow.Bitmap, bool) {
	return dataflow.NewBitmap(len(vb.rows)), nil, true
}

// vcmp compares two column-valued operands.
type vcmp struct {
	op   dataflow.CmpOp
	l, r vexpr
}

func (v *vcmp) evalBits(vb *vecBatch) (dataflow.Bitmap, dataflow.Bitmap, bool) {
	lc, ok := v.l.evalCol(vb)
	if !ok {
		return nil, nil, false
	}
	rc, ok := v.r.evalCol(vb)
	if !ok {
		return nil, nil, false
	}
	bits, ok := dataflow.CmpColumns(v.op, &lc, &rc)
	return bits, nil, ok
}

func (v *vcmp) evalCol(vb *vecBatch) (dataflow.Column, bool) {
	bits, _, ok := v.evalBits(vb)
	if !ok {
		return dataflow.Column{}, false
	}
	return dataflow.BoolColumn(bits, len(vb.rows)), true
}

// vcmpConst compares a column-valued operand against a literal — the shape
// predicate pushdown produces ($col < const) — through the specialized
// constant kernels.
type vcmpConst struct {
	op  dataflow.CmpOp
	e   vexpr
	val value.Value // int64, float64, string, or value.Date
}

func (v *vcmpConst) evalBits(vb *vecBatch) (dataflow.Bitmap, dataflow.Bitmap, bool) {
	// Bare-column operand not transposed yet: run the fused single-pass
	// kernel straight over the rows, skipping column materialization. On
	// refusal (unsupported combo or a dynamic type mismatch) fall through to
	// the materializing path, which reaches the identical verdict.
	if col, isCol := v.e.(*vcol); isCol && col.idx < vb.width && !vb.arena.done[col.idx] {
		if bits, ok := dataflow.CmpRowsConst(v.op, vb.rows, col.idx, col.kind, v.val); ok {
			return bits, nil, true
		}
	}
	c, ok := v.e.evalCol(vb)
	if !ok {
		return nil, nil, false
	}
	var bits dataflow.Bitmap
	switch x := v.val.(type) {
	case int64:
		bits, ok = dataflow.CmpColumnConstInt(v.op, &c, x)
	case float64:
		bits, ok = dataflow.CmpColumnConstFloat(v.op, &c, x)
	case string:
		bits, ok = dataflow.CmpColumnConstString(v.op, &c, x)
	case value.Date:
		bits, ok = dataflow.CmpColumnConstDate(v.op, &c, int64(x))
	default:
		return nil, nil, false
	}
	return bits, nil, ok
}

func (v *vcmpConst) evalCol(vb *vecBatch) (dataflow.Column, bool) {
	bits, _, ok := v.evalBits(vb)
	if !ok {
		return dataflow.Column{}, false
	}
	return dataflow.BoolColumn(bits, len(vb.rows)), true
}

// varith applies +,-,*,/ with NULL propagation, writing into its arena slot
// (assigned at compile time, unique per node, so nested arithmetic never
// aliases).
type varith struct {
	op   dataflow.ArithOp
	l, r vexpr
	slot int
}

func (v *varith) evalCol(vb *vecBatch) (dataflow.Column, bool) {
	lc, ok := v.l.evalCol(vb)
	if !ok {
		return dataflow.Column{}, false
	}
	rc, ok := v.r.evalCol(vb)
	if !ok {
		return dataflow.Column{}, false
	}
	out := vb.arena.slot(v.slot)
	if !dataflow.ArithColumnsInto(v.op, &lc, &rc, out, &vb.arena.sc) {
		return dataflow.Column{}, false
	}
	return *out, true
}

// vnot is boolean negation; NULL negates to false.
type vnot struct{ e vexpr }

func (v *vnot) evalBits(vb *vecBatch) (dataflow.Bitmap, dataflow.Bitmap, bool) {
	vals, nulls, ok := evalBits(v.e, vb)
	if !ok {
		return nil, nil, false
	}
	n := len(vb.rows)
	return dataflow.NotBitmap(dataflow.OrBitmaps(vals, nulls, n), n), nil, true
}

func (v *vnot) evalCol(vb *vecBatch) (dataflow.Column, bool) {
	bits, _, ok := v.evalBits(vb)
	if !ok {
		return dataflow.Column{}, false
	}
	return dataflow.BoolColumn(bits, len(vb.rows)), true
}

// vbool is && / || with each side coerced NULL→false first (the row
// interpreter's `v, _ := e.Eval(r).(bool)` idiom; operands are pure, so eager
// evaluation matches its short-circuit).
type vbool struct {
	and  bool
	l, r vexpr
}

func (v *vbool) evalBits(vb *vecBatch) (dataflow.Bitmap, dataflow.Bitmap, bool) {
	lv, ln, ok := evalBits(v.l, vb)
	if !ok {
		return nil, nil, false
	}
	rv, rn, ok := evalBits(v.r, vb)
	if !ok {
		return nil, nil, false
	}
	n := len(vb.rows)
	lc := dataflow.AndNotBitmap(lv, ln, n)
	rc := dataflow.AndNotBitmap(rv, rn, n)
	if v.and {
		return dataflow.AndBitmaps(lc, rc, n), nil, true
	}
	return dataflow.OrBitmaps(lc, rc, n), nil, true
}

func (v *vbool) evalCol(vb *vecBatch) (dataflow.Column, bool) {
	bits, _, ok := v.evalBits(vb)
	if !ok {
		return dataflow.Column{}, false
	}
	return dataflow.BoolColumn(bits, len(vb.rows)), true
}

func cmpOp(op nrc.CmpOp) dataflow.CmpOp {
	switch op {
	case nrc.Eq:
		return dataflow.CmpEq
	case nrc.Ne:
		return dataflow.CmpNe
	case nrc.Lt:
		return dataflow.CmpLt
	case nrc.Le:
		return dataflow.CmpLe
	case nrc.Gt:
		return dataflow.CmpGt
	default:
		return dataflow.CmpGe
	}
}

func arithOp(op nrc.ArithOp) dataflow.ArithOp {
	switch op {
	case nrc.Add:
		return dataflow.ArithAdd
	case nrc.Sub:
		return dataflow.ArithSub
	case nrc.Mul:
		return dataflow.ArithMul
	default:
		return dataflow.ArithDiv
	}
}

// mirrorOp rewrites (const op x) as (x op' const).
func mirrorOp(op dataflow.CmpOp) dataflow.CmpOp {
	switch op {
	case dataflow.CmpLt:
		return dataflow.CmpGt
	case dataflow.CmpLe:
		return dataflow.CmpGe
	case dataflow.CmpGt:
		return dataflow.CmpLt
	case dataflow.CmpGe:
		return dataflow.CmpLe
	default: // Eq, Ne are symmetric
		return op
	}
}

// constLiteral reports whether a constant's value has a dedicated constant
// kernel (bool constants go through the generic column path).
func constLiteral(v value.Value) bool {
	switch v.(type) {
	case int64, float64, string, value.Date:
		return true
	}
	return false
}

// vecProg counts arena slots while compiling one stage's kernel tree; its
// slot total sizes the stage's scratch.
type vecProg struct{ slots int }

// compileVexpr compiles a plan expression to a vector-kernel tree. A nil
// result means the expression stays on the row interpreter; reason names the
// first offending construct (surfaced in Explain).
func compileVexpr(e plan.Expr) (vexpr, string) {
	var p vecProg
	return p.expr(e)
}

func (p *vecProg) expr(e plan.Expr) (vexpr, string) {
	switch x := e.(type) {
	case *plan.Col:
		k, ok := scalarKind(x.Typ)
		if !ok {
			return nil, fmt.Sprintf("non-scalar column %s", x.Name)
		}
		return &vcol{idx: x.Idx, kind: k}, ""

	case *plan.ConstE:
		k, ok := scalarKind(x.Typ)
		if !ok {
			return nil, "non-scalar constant"
		}
		return &vconst{kind: k, val: x.Val}, ""

	case *plan.CmpE:
		if rc, ok := x.R.(*plan.ConstE); ok {
			if rc.Val == nil {
				if _, scalar := scalarKind(rc.Typ); scalar {
					return vfalse{}, ""
				}
			}
			if constLiteral(rc.Val) {
				l, reason := p.expr(x.L)
				if l == nil {
					return nil, reason
				}
				return &vcmpConst{op: cmpOp(x.Op), e: l, val: rc.Val}, ""
			}
		}
		if lc, ok := x.L.(*plan.ConstE); ok {
			if lc.Val == nil {
				if _, scalar := scalarKind(lc.Typ); scalar {
					return vfalse{}, ""
				}
			}
			if constLiteral(lc.Val) {
				r, reason := p.expr(x.R)
				if r == nil {
					return nil, reason
				}
				return &vcmpConst{op: mirrorOp(cmpOp(x.Op)), e: r, val: lc.Val}, ""
			}
		}
		l, reason := p.expr(x.L)
		if l == nil {
			return nil, reason
		}
		r, reason := p.expr(x.R)
		if r == nil {
			return nil, reason
		}
		return &vcmp{op: cmpOp(x.Op), l: l, r: r}, ""

	case *plan.ArithE:
		if _, ok := scalarKind(x.Typ); !ok {
			return nil, "non-scalar arithmetic"
		}
		l, reason := p.expr(x.L)
		if l == nil {
			return nil, reason
		}
		r, reason := p.expr(x.R)
		if r == nil {
			return nil, reason
		}
		v := &varith{op: arithOp(x.Op), l: l, r: r, slot: p.slots}
		p.slots++
		return v, ""

	case *plan.NotE:
		sub, reason := p.expr(x.E)
		if sub == nil {
			return nil, reason
		}
		return &vnot{e: sub}, ""

	case *plan.BoolE:
		l, reason := p.expr(x.L)
		if l == nil {
			return nil, reason
		}
		r, reason := p.expr(x.R)
		if r == nil {
			return nil, reason
		}
		return &vbool{and: x.And, l: l, r: r}, ""

	case *plan.MkTuple:
		return nil, "tuple constructor"
	case *plan.MkLabel:
		return nil, "label constructor"
	case *plan.LabelField:
		return nil, "label destructuring"
	case *plan.CastNullBag:
		return nil, "bag cast"
	}
	return nil, fmt.Sprintf("unsupported expr %T", e)
}

// outExpr is one output of a vectorized Extend/Project: either a direct
// per-row copy/eval (bare column references and constants, where boxing
// through a column would only add work) or a compiled kernel expression.
type outExpr struct {
	copyIdx int  // input column to copy when ≥ 0
	isConst bool // evaluate the (constant) row expr directly
	rowExpr plan.Expr
	kernel  vexpr
}

// compileOuts classifies output expressions for a vectorized map stage.
// Every expression must be a direct copy, a constant, or kernel-compilable,
// and at least one must be a genuine kernel expression (otherwise the row
// path is already optimal and reason says so).
func compileOuts(exprs []plan.NamedExpr) ([]outExpr, string) {
	var p vecProg
	return p.outs(exprs)
}

func (p *vecProg) outs(exprs []plan.NamedExpr) ([]outExpr, string) {
	outs := make([]outExpr, len(exprs))
	kernels := 0
	for i, ne := range exprs {
		switch x := ne.Expr.(type) {
		case *plan.Col:
			outs[i] = outExpr{copyIdx: x.Idx, rowExpr: ne.Expr}
			continue
		case *plan.ConstE:
			outs[i] = outExpr{copyIdx: -1, isConst: true, rowExpr: ne.Expr}
			continue
		}
		k, reason := p.expr(ne.Expr)
		if k == nil {
			return nil, reason
		}
		outs[i] = outExpr{copyIdx: -1, kernel: k, rowExpr: ne.Expr}
		kernels++
	}
	if kernels == 0 {
		return nil, "no computed scalar expressions"
	}
	return outs, ""
}

// AnnotateVectorize walks an optimized plan, compiles every narrow operator's
// expressions through the vectorizer, and records the verdict on the operator
// (rendered by Explain). Returns per-plan counts and folds them into the
// process-wide counters served at /metrics.
func AnnotateVectorize(op plan.Op) plan.VecStats {
	var st plan.VecStats
	annotateVec(op, &st)
	plan.RecordVecStats(st)
	return st
}

// AnnotateVectorizeQuiet annotates without touching the process-wide
// counters. Used on the pre-optimizer plan copies kept for Explain diffs, so
// before/after trees render with the same notation but only the plan the
// engine actually runs is counted.
func AnnotateVectorizeQuiet(op plan.Op) {
	var st plan.VecStats
	annotateVec(op, &st)
}

func annotateVec(op plan.Op, st *plan.VecStats) {
	if op == nil {
		return
	}
	var note *plan.VecNote
	switch x := op.(type) {
	case *plan.Select:
		note = &plan.VecNote{OK: true}
		if _, reason := compileVexpr(x.Pred); reason != "" {
			note = &plan.VecNote{Reason: reason}
		}
		x.Vec = note
	case *plan.Extend:
		note = &plan.VecNote{OK: true}
		if _, reason := compileOuts(x.Exprs); reason != "" {
			note = &plan.VecNote{Reason: reason}
		}
		x.Vec = note
	case *plan.Project:
		note = &plan.VecNote{OK: true}
		if _, reason := compileOuts(x.Outs); reason != "" {
			note = &plan.VecNote{Reason: reason}
		}
		x.Vec = note
	}
	if note != nil {
		if note.OK {
			st.OpsVectorized++
		} else {
			st.OpsFallback++
		}
	}
	for _, ch := range op.Children() {
		annotateVec(ch, st)
	}
}
