package runner

import (
	"fmt"
	"strings"
	"time"

	"github.com/trance-go/trance/internal/plan"
)

// Explain renders every compiled plan of the artifact, showing the plan
// before and after the rule-based optimizer pass (predicate pushdown, select
// fusion, constant folding) plus the optimizer's rule-hit counters. Plans the
// optimizer left unchanged are printed once. The output backs
// `trance query -explain`, the tranced GET /explain route, and the golden
// fixtures under internal/runner/testdata.
func (cq *Compiled) Explain() string {
	var sb strings.Builder
	cq.explainHeader(&sb)
	if cq.Plan != nil {
		explainPair(&sb, "plan", cq.RawPlan, cq.Plan)
	}
	for i, st := range cq.Stmts {
		var raw plan.Op
		if i < len(cq.RawStmts) {
			raw = cq.RawStmts[i].Plan
		}
		explainPair(&sb, "assignment "+st.Name, raw, st.Plan)
	}
	if cq.Unshred != nil {
		explainPair(&sb, "unshred plan", cq.RawUnshred, cq.Unshred)
	}
	return sb.String()
}

// explainHeader writes the strategy/optimizer/vectorize/index preamble shared
// by Explain and ExplainAnalyze.
func (cq *Compiled) explainHeader(sb *strings.Builder) {
	if cq.Requested == Auto {
		fmt.Fprintf(sb, "strategy: %s (auto-selected)\n", cq.Strategy)
		for _, r := range cq.AutoReasons {
			fmt.Fprintf(sb, "auto: %s\n", r)
		}
	} else {
		fmt.Fprintf(sb, "strategy: %s\n", cq.Strategy)
	}
	if cq.Cfg.NoPredicatePushdown {
		sb.WriteString("optimizer: disabled (NoPredicatePushdown)\n")
	} else {
		fmt.Fprintf(sb, "optimizer: %s\n", cq.Opt.String())
	}
	if cq.Cfg.NoVectorize {
		sb.WriteString("vectorize: disabled (NoVectorize)\n")
	} else {
		fmt.Fprintf(sb, "vectorize: %s\n", cq.Vec.String())
	}
	if cq.Cfg.NoIndexScan {
		sb.WriteString("index: disabled (NoIndexScan)\n")
	} else if cq.Idx.Planned > 0 {
		fmt.Fprintf(sb, "index: %s\n", cq.Idx.String())
	}
}

// ExplainAnalyze renders the compiled plans annotated with the per-operator
// runtime statistics of one execution (res must come from a run with
// ExecOptions.Analysis set). Each operator line gains actual rows, wall time,
// and batch counts beside its static [est_rows=…] annotation; joins and index
// scans additionally get a q-error summary block comparing the optimizer's
// cardinality estimate against the observed row count.
func (cq *Compiled) ExplainAnalyze(res *Result) string {
	var sb strings.Builder
	cq.explainHeader(&sb)
	a := res.Analyze
	if a == nil {
		sb.WriteString("analyze: no runtime statistics collected (run with analyze enabled)\n")
		return sb.String()
	}
	wall := map[string]time.Duration{}
	for _, st := range res.Metrics.StageWall {
		wall[st.Stage] += st.Wall
	}
	// Shuffle stages are named under the operator's base stage plus a side
	// suffix ("join#1/L"); node stats carry the base name, so the shuffle
	// bytes aggregate under the text before the first '/'.
	shuffled := map[string]int64{}
	for _, ss := range res.Metrics.StageShuffle {
		base := ss.Stage
		if i := strings.IndexByte(base, '/'); i >= 0 {
			base = base[:i]
		}
		shuffled[base] += ss.Bytes
	}
	if cq.Plan != nil {
		fmt.Fprintf(&sb, "=== plan (analyzed) ===\n%s", plan.ExplainAnalyzed(cq.Plan, a, wall, shuffled))
	}
	for _, st := range cq.Stmts {
		fmt.Fprintf(&sb, "=== assignment %s (analyzed) ===\n%s", st.Name, plan.ExplainAnalyzed(st.Plan, a, wall, shuffled))
	}
	if cq.Unshred != nil {
		fmt.Fprintf(&sb, "=== unshred plan (analyzed) ===\n%s", plan.ExplainAnalyzed(cq.Unshred, a, wall, shuffled))
	}
	qerrs := cq.qErrors(a)
	if len(qerrs) > 0 {
		sb.WriteString("=== q-error (estimate vs actual) ===\n")
		for _, q := range qerrs {
			fmt.Fprintf(&sb, "q-error %.2f  est=%d actual=%d  %s\n", q.Q, q.Est, q.Actual, q.Node)
		}
	}
	fmt.Fprintf(&sb, "execution: wall=%s shuffled=%dB rows_shuffled=%d\n",
		res.Elapsed.Round(time.Microsecond), res.Metrics.ShuffleBytes, res.Metrics.ShuffleRecords)
	return sb.String()
}

// qErrors collects estimate-vs-actual ratios from every compiled plan tree.
func (cq *Compiled) qErrors(a *plan.Analysis) []plan.QError {
	var out []plan.QError
	if cq.Plan != nil {
		out = append(out, plan.QErrors(cq.Plan, a)...)
	}
	for _, st := range cq.Stmts {
		out = append(out, plan.QErrors(st.Plan, a)...)
	}
	if cq.Unshred != nil {
		out = append(out, plan.QErrors(cq.Unshred, a)...)
	}
	return out
}

// explainPair prints one plan section; when the optimizer changed the plan,
// both the before and after trees are shown.
func explainPair(sb *strings.Builder, what string, raw, opt plan.Op) {
	after := plan.Explain(opt)
	if raw == nil {
		fmt.Fprintf(sb, "=== %s ===\n%s", what, after)
		return
	}
	before := plan.Explain(raw)
	if before == after {
		fmt.Fprintf(sb, "=== %s (unchanged by optimizer) ===\n%s", what, after)
		return
	}
	fmt.Fprintf(sb, "=== %s (before optimizer) ===\n%s", what, before)
	fmt.Fprintf(sb, "=== %s (after optimizer) ===\n%s", what, after)
}

// ExplainPipeline renders the Explain of every step of a compiled pipeline.
func (cp *CompiledPipeline) ExplainPipeline() string {
	var sb strings.Builder
	for i, st := range cp.Steps {
		fmt.Fprintf(&sb, "--- step %d: %s ---\n%s", i+1, st.Name, st.CQ.Explain())
	}
	return sb.String()
}
