package trance

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/trance-go/trance/internal/runner"
)

// PreparedPipeline is a multi-step pipeline compiled once and evaluated many
// times. Every step's compilation goes through the same process-wide plan
// cache as Prepare, keyed by an env-aware fingerprint: a step's key digests
// the step query, the base environment *plus the resolved output types of
// every prior step*, the step name, and its effective strategy. Two
// pipelines sharing a prefix therefore share the prefix's compiled plans,
// and re-preparing the same pipeline compiles nothing.
//
// All methods are safe for concurrent use; see PreparedQuery for the
// execution model (shared bounded pool, fresh per-run context and metrics).
type PreparedPipeline struct {
	name     string
	steps    []PipelineStep
	env      Env
	cfg      Config
	pool     *Pool
	stepEnvs []Env  // per-step compile environment (base + prior outputs)
	outTypes []Type // per-step checked output type
	fps      []string

	// compileMu serializes this pipeline's compilations (compilation
	// type-annotates the shared step ASTs in place). Cache hits do not take
	// the lock. It is a pointer so a session's generation refresh can share
	// one mutex across re-preparations of the same step ASTs.
	compileMu *sync.Mutex
}

// PreparePipeline typechecks every step against the base environment
// extended with the outputs of prior steps and sets up compile-once
// evaluation of the whole pipeline. PrepareOptions.Env is required;
// PrepareOptions.Strategies compile eagerly, everything else on first Run —
// each (step, strategy) exactly once process-wide.
//
// PreparePipeline takes ownership of the step ASTs; do not share them
// between concurrent Prepare calls.
func PreparePipeline(steps []PipelineStep, opts PrepareOptions) (*PreparedPipeline, error) {
	if opts.Env == nil {
		return nil, fmt.Errorf("trance: PreparePipeline requires PrepareOptions.Env")
	}
	cfg := DefaultConfig()
	if opts.Config != nil {
		cfg = *opts.Config
	}
	stepEnvs, outTypes, err := runner.ResolveSteps(steps, opts.Env)
	if err != nil {
		if opts.Name != "" {
			return nil, fmt.Errorf("prepare pipeline %s: %w", opts.Name, err)
		}
		return nil, err
	}
	pp := &PreparedPipeline{
		name:      opts.Name,
		steps:     append([]PipelineStep(nil), steps...),
		env:       opts.Env,
		cfg:       cfg,
		pool:      poolFor(cfg, opts.Pool),
		stepEnvs:  stepEnvs,
		outTypes:  outTypes,
		compileMu: &sync.Mutex{},
	}
	for i, st := range steps {
		pp.fps = append(pp.fps, fingerprint(st.Query, stepEnvs[i], cfg)+"|step="+st.Name)
	}
	for _, s := range opts.Strategies {
		if _, err := pp.compiled(s); err != nil {
			return nil, err
		}
	}
	return pp, nil
}

// Name returns the label given at PreparePipeline time.
func (pp *PreparedPipeline) Name() string { return pp.name }

// Steps returns the number of steps.
func (pp *PreparedPipeline) Steps() int { return len(pp.steps) }

// OutType returns the checked output type of step i (the pipeline's final
// output type is OutType(Steps()-1)).
func (pp *PreparedPipeline) OutType(i int) Type { return pp.outTypes[i] }

// Explain compiles the strategy if needed and renders every step's plans
// before and after the rule-based optimizer pass, plus per-step rule-hit
// counters (see PreparedQuery.Explain).
func (pp *PreparedPipeline) Explain(strat Strategy) (string, error) {
	cp, err := pp.compiled(strat)
	if err != nil {
		return "", fmt.Errorf("%s (%s): %w", pp.label(), strat, err)
	}
	return cp.ExplainPipeline(), nil
}

// compiled assembles the per-step compiled artifacts for the strategy from
// the plan cache, compiling each missing (step, strategy) slot exactly once
// process-wide. Intermediate steps of unshredding strategies compile as
// their shredded-only variant (see runner.StepStrategy), sharing cache slots
// with plain Shred pipelines.
func (pp *PreparedPipeline) compiled(strat Strategy) (*runner.CompiledPipeline, error) {
	cp := &runner.CompiledPipeline{Strategy: strat, Cfg: pp.cfg}
	for i, st := range pp.steps {
		eff := runner.StepStrategy(strat, i == len(pp.steps)-1)
		entry := planCache.entry(pp.fps[i] + "|" + eff.String())
		entry.once.Do(func() {
			pp.compileMu.Lock()
			defer pp.compileMu.Unlock()
			planCache.compiles.Add(1)
			entry.cq, entry.err = runner.CompileStep(st.Query, pp.stepEnvs[i], eff, pp.cfg, st.Name)
		})
		if entry.err != nil {
			return nil, &runner.StepError{Step: i, Name: st.Name, Err: entry.err}
		}
		cp.Steps = append(cp.Steps, runner.CompiledStep{Name: st.Name, Out: pp.outTypes[i], CQ: entry.cq})
	}
	return cp, nil
}

// OutputSchema reports the flat schema of the pipeline's final output under
// the strategy, with the final step's own field names for nested-output
// strategies (see PreparedQuery.OutputSchema). It compiles the strategy if
// needed.
func (pp *PreparedPipeline) OutputSchema(strat Strategy) ([]OutputColumn, error) {
	cp, err := pp.compiled(strat)
	if err != nil {
		return nil, err
	}
	last := cp.Steps[len(cp.Steps)-1]
	op := last.CQ.OutputPlan()
	if op == nil {
		return nil, fmt.Errorf("%s (%s): no output plan", pp.label(), strat)
	}
	var cols []OutputColumn
	for _, c := range op.Columns() {
		cols = append(cols, OutputColumn{Name: c.Name, Type: c.Type})
	}
	// The final step of an unshredding pipeline is compiled as its
	// unshredded variant, so the effective strategy equals strat here.
	return namedSchema(cols, pp.outTypes[len(pp.outTypes)-1], strat), nil
}

// Run executes the prepared pipeline under the strategy over one set of
// inputs: RunBound over freshly bound data, so the inputs are converted into
// engine rows on every call.
func (pp *PreparedPipeline) Run(ctx context.Context, inputs map[string]Bag, strat Strategy) (*PipelineResult, error) {
	return pp.RunBound(ctx, pp.BindData(inputs), strat)
}

// BindData associates datasets with the prepared pipeline for repeated
// evaluation: the conversion of nested values into engine rows (value
// shredding on shredded routes) is computed once per route and shared by
// every RunBound call, exactly like PreparedQuery.BindData. The bags are
// captured by reference and must not be mutated afterwards.
func (pp *PreparedPipeline) BindData(inputs map[string]Bag) *PreparedData {
	return newPreparedData(inputs)
}

// RunBound executes the prepared pipeline under the strategy over data bound
// once with BindData: compiled plans from the cache, input conversion cached
// per route, execution on a fresh dataflow context drawing workers from the
// shared pool, panics degraded to errors. When the returned PipelineResult
// is non-nil its Metrics, StepElapsed and FailedStep are valid even on
// failure.
func (pp *PreparedPipeline) RunBound(ctx context.Context, data *PreparedData, strat Strategy) (*PipelineResult, error) {
	cp, err := pp.compiled(strat)
	if err != nil {
		return nil, fmt.Errorf("%s (%s): %w", pp.label(), strat, err)
	}
	rows, idxs, err := data.bind(cp.Steps[0].CQ)
	if err != nil {
		return nil, fmt.Errorf("%s (%s): prepare inputs: %w", pp.label(), strat, err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	dctx := runner.NewRunContext(pp.cfg, strat)
	dctx.SharedPool = pp.pool
	res := cp.ExecuteRowsOpts(ctx, rows, dctx, runner.ExecOptions{Indexes: idxs})
	if res.Err != nil {
		return res, fmt.Errorf("%s (%s) step %d: %w", pp.label(), strat, res.FailedStep, res.Err)
	}
	return res, nil
}

func (pp *PreparedPipeline) label() string {
	if pp.name != "" {
		return pp.name
	}
	return "pipeline"
}

// RunPipeline executes a multi-step pipeline under one strategy, binding
// each step's output as an input of later steps; shredded strategies keep
// intermediate results shredded between steps and unshred only the final
// output. Compilation goes through the process-wide plan cache — a repeated
// pipeline compiles each step exactly once (see PreparePipeline for the
// compile-once serving API this wraps).
func RunPipeline(steps []PipelineStep, env Env, inputs map[string]Bag, strat Strategy, cfg Config) *PipelineResult {
	pp, err := PreparePipeline(steps, PrepareOptions{Env: env, Config: &cfg})
	if err != nil {
		return pipelineFailure(strat, err)
	}
	res, err := pp.Run(context.Background(), inputs, strat)
	if res == nil {
		return pipelineFailure(strat, err)
	}
	return res
}

func pipelineFailure(strat Strategy, err error) *PipelineResult {
	res := &PipelineResult{Strategy: strat, FailedStep: 0, Err: err}
	var se *runner.StepError
	if errors.As(err, &se) {
		res.FailedStep = se.Step
	}
	return res
}
