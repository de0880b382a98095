package runner

import (
	"context"
	"fmt"
	"time"

	"github.com/trance-go/trance/internal/dataflow"
	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/shred"
	"github.com/trance-go/trance/internal/value"
)

// PipelineStep is one constituent query of a multi-step pipeline; it may
// reference the outputs of earlier steps by name.
type PipelineStep struct {
	Name  string
	Query nrc.Expr
}

// PipelineResult reports a pipeline run: per-step runtimes and the first
// failure, if any. In shredded strategies intermediate results stay shredded
// between steps (paper Section 4: shredded output feeds the next constituent
// query without reconstruction); only the final step unshreds under the
// unshredding strategies. The whole pipeline typechecks and compiles before
// any step executes, so a malformed step fails the run with an empty
// StepElapsed rather than after earlier steps have burned time.
type PipelineResult struct {
	Strategy    Strategy
	StepElapsed []time.Duration
	FailedStep  int // -1 when every step completed
	Err         error
	Metrics     dataflow.Snapshot
	// Output is the final step's result dataset (top bag when shredded
	// without unshredding).
	Output *dataflow.Dataset
}

// Failed reports whether any step crashed.
func (r *PipelineResult) Failed() bool { return r.Err != nil }

func (r *PipelineResult) fail(step int, err error) {
	r.FailedStep = step
	r.Err = err
}

// StepError tags a pipeline typecheck/compile failure with the step it
// occurred in, so callers can report "step 2 of 5" without parsing messages.
type StepError struct {
	Step int
	Name string
	Err  error
}

func (e *StepError) Error() string {
	return fmt.Sprintf("step %s (#%d): %v", e.Name, e.Step+1, e.Err)
}

func (e *StepError) Unwrap() error { return e.Err }

// ResolveSteps typechecks the steps in order against the base environment
// and returns, per step, the environment the step compiles against (the base
// env plus the output types of every prior step) and the step's checked
// output type. These per-step environments are what makes prepared-pipeline
// fingerprints env-aware: a step's cache key covers the resolved types of the
// outputs it consumes.
func ResolveSteps(steps []PipelineStep, env nrc.Env) (envs []nrc.Env, outs []nrc.Type, err error) {
	if len(steps) == 0 {
		return nil, nil, fmt.Errorf("pipeline has no steps")
	}
	scope := nrc.Env{}
	for k, v := range env {
		scope[k] = v
	}
	for i, st := range steps {
		if st.Name == "" {
			return nil, nil, &StepError{Step: i, Name: "?", Err: fmt.Errorf("step has no name")}
		}
		if _, dup := scope[st.Name]; dup {
			return nil, nil, &StepError{Step: i, Name: st.Name, Err: fmt.Errorf("name already bound")}
		}
		t, err := nrc.Check(st.Query, scope)
		if err != nil {
			return nil, nil, &StepError{Step: i, Name: st.Name, Err: err}
		}
		stepEnv := nrc.Env{}
		for k, v := range scope {
			stepEnv[k] = v
		}
		envs = append(envs, stepEnv)
		outs = append(outs, t)
		scope[st.Name] = t
	}
	return envs, outs, nil
}

// StepStrategy is the effective strategy for one step: intermediate steps of
// an unshredding pipeline stay shredded (their consumers read the shredded
// components directly), only the last step pays for unshredding.
func StepStrategy(strat Strategy, last bool) Strategy {
	if last || !strat.unshreds() {
		return strat
	}
	if strat == ShredUnshredSkew {
		return ShredSkew
	}
	return Shred
}

// CompiledStep is one compiled constituent of a CompiledPipeline.
type CompiledStep struct {
	Name string
	// Out is the step's checked (nested) output type.
	Out nrc.Type
	// CQ is the step's compiled artifact under the step's effective strategy.
	CQ *Compiled
}

// CompiledPipeline holds the per-step compiled artifacts of a pipeline. Like
// Compiled, it is immutable after construction and safe to execute from many
// goroutines at once over different inputs.
type CompiledPipeline struct {
	Strategy Strategy
	Cfg      Config
	Steps    []CompiledStep
}

// CompilePipeline typechecks and compiles every step up front (each against
// the base env extended with prior outputs). Serving paths that run the same
// pipeline repeatedly should compile the steps through a plan cache instead
// and assemble the CompiledPipeline themselves — the root package's
// PreparePipeline does.
func CompilePipeline(steps []PipelineStep, env nrc.Env, strat Strategy, cfg Config) (*CompiledPipeline, error) {
	envs, outs, err := ResolveSteps(steps, env)
	if err != nil {
		return nil, err
	}
	cp := &CompiledPipeline{Strategy: strat, Cfg: cfg}
	for i, st := range steps {
		eff := StepStrategy(strat, i == len(steps)-1)
		cq, err := CompileStep(st.Query, envs[i], eff, cfg, st.Name)
		if err != nil {
			return nil, &StepError{Step: i, Name: st.Name, Err: err}
		}
		cp.Steps = append(cp.Steps, CompiledStep{Name: st.Name, Out: outs[i], CQ: cq})
	}
	return cp, nil
}

// ExecuteRowsOpts runs the compiled steps in order over input rows converted
// by the first step's Compiled.InputRows, on the given dataflow context. All
// steps share one executor, built like the first step's own, so each step's
// output — the nested dataset on standard routes, the materialized shredded
// components on shredded routes — is visible to later steps without
// re-conversion. Input preparation stays outside the timed region.
func (cp *CompiledPipeline) ExecuteRowsOpts(ctx context.Context, rows map[string][]dataflow.Row, dctx *dataflow.Context, opts ExecOptions) *PipelineResult {
	res := &PipelineResult{Strategy: cp.Strategy, FailedStep: -1}
	func() {
		var err error
		step := 0
		defer func() {
			if err != nil && res.Err == nil {
				res.fail(step, err)
			}
		}()
		defer recoverTo(&err, "pipeline execute")

		ex := cp.Steps[0].CQ.newExecutor(dctx, rows, opts)
		for i, st := range cp.Steps {
			step = i
			sres := &Result{Strategy: st.CQ.Strategy, Mat: st.CQ.Mat}
			st.CQ.runOn(ctx, ex, sres, opts.Span)
			res.StepElapsed = append(res.StepElapsed, sres.Elapsed)
			if sres.Err != nil {
				err = fmt.Errorf("step %s: %w", st.Name, sres.Err)
				return
			}
			res.Output = sres.Output
			if i == len(cp.Steps)-1 {
				break
			}
			// Bind the step's output as an input of later steps: the nested
			// dataset under the step name, or the shredded top bag under the
			// MatName convention (the step's dictionaries were already bound
			// per materialized assignment by the shredded executor).
			if st.CQ.Strategy.IsShredded() {
				ex.Bind(shred.MatName(st.Name, nil), sres.Shredded[st.CQ.Mat.TopName])
			} else {
				ex.Bind(st.Name, sres.Output)
			}
		}
	}()
	res.Metrics = dctx.Metrics.Snapshot()
	return res
}

// RunPipeline executes the steps in order under one strategy, binding each
// step's output as an input of later steps: one-shot compile + execute.
// Serving paths should use the root package's PreparePipeline, which reuses
// the process-wide plan cache across calls.
func RunPipeline(steps []PipelineStep, env nrc.Env, inputs map[string]value.Bag, strat Strategy, cfg Config) *PipelineResult {
	cp, err := CompilePipeline(steps, env, strat, cfg)
	if err != nil {
		res := &PipelineResult{Strategy: strat, FailedStep: 0, Err: err}
		if se, ok := err.(*StepError); ok {
			res.FailedStep = se.Step
		}
		return res
	}
	rows, err := cp.Steps[0].CQ.InputRows(inputs)
	if err != nil {
		return &PipelineResult{Strategy: strat, FailedStep: 0, Err: err}
	}
	return cp.ExecuteRowsOpts(context.Background(), rows, NewRunContext(cfg, strat), ExecOptions{})
}
