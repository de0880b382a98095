package runner_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/runner"
	"github.com/trance-go/trance/internal/value"
)

// TestNumericEquiJoinMatchesOracle pins equi-joins whose sides are equal
// under value.Compare but differ in their raw representation: an int key
// against a real key (1 = 1.0), and negative against positive zero. nrc.Eval
// joins both pairs, so every strategy, over shuffled and broadcast joins,
// must too. A second, NULL-keyed row of A matches nothing.
func TestNumericEquiJoinMatchesOracle(t *testing.T) {
	cases := []struct {
		name   string
		kT, rT nrc.Type
		k, r   value.Value
	}{
		{"int=real", nrc.IntT, nrc.RealT, int64(1), 1.0},
		{"real=int", nrc.RealT, nrc.IntT, 2.0, int64(2)},
		{"-0.0=0.0", nrc.RealT, nrc.RealT, math.Copysign(0, -1), 0.0},
	}
	for _, c := range cases {
		env := nrc.Env{
			"A": nrc.BagOf(nrc.Tup("id", nrc.StringT, "k", c.kT)),
			"B": nrc.BagOf(nrc.Tup("id", nrc.StringT, "r", c.rT)),
		}
		inputs := map[string]value.Bag{
			"A": {value.Tuple{"a1", c.k}, value.Tuple{"a2", nil}},
			"B": {value.Tuple{"b1", c.r}},
		}
		for _, shape := range numericJoinShapes {
			checkNumericJoin(t, c.name+"/"+shape.name, shape.query, env, inputs)
		}
	}
}

// numericJoinShapes place the equi-join at the top level and inside a
// nested bag, where an unmatched outer tuple must survive with an empty bag.
var numericJoinShapes = []struct {
	name  string
	query func() nrc.Expr
}{
	// for a in A union for b in B union
	//   if a.k == b.r then {⟨a := a.id, b := b.id⟩}
	{"flat", func() nrc.Expr {
		return nrc.ForIn("a", nrc.V("A"),
			nrc.ForIn("b", nrc.V("B"),
				nrc.IfThen(nrc.EqOf(nrc.P(nrc.V("a"), "k"), nrc.P(nrc.V("b"), "r")),
					nrc.SingOf(nrc.Record("a", nrc.P(nrc.V("a"), "id"), "b", nrc.P(nrc.V("b"), "id"))))))
	}},
	// for a in A union
	//   {⟨a := a.id, bs := for b in B union if a.k == b.r then {⟨b := b.id⟩}⟩}
	{"nested", func() nrc.Expr {
		return nrc.ForIn("a", nrc.V("A"),
			nrc.SingOf(nrc.Record("a", nrc.P(nrc.V("a"), "id"), "bs",
				nrc.ForIn("b", nrc.V("B"),
					nrc.IfThen(nrc.EqOf(nrc.P(nrc.V("a"), "k"), nrc.P(nrc.V("b"), "r")),
						nrc.SingOf(nrc.Record("b", nrc.P(nrc.V("b"), "id"))))))))
	}},
}

// checkNumericJoin runs the query under every strategy and broadcast limit
// and compares each result with nrc.Eval, which must find one match.
func checkNumericJoin(t *testing.T, name string, mkQuery func() nrc.Expr, env nrc.Env, inputs map[string]value.Bag) {
	t.Helper()
	want, err := oracleEval(mkQuery(), env, inputs)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !strings.Contains(value.Format(want), `"b1"`) {
		t.Fatalf("%s: oracle returned %s, want b1 matched", name, value.Format(want))
	}
	for _, strat := range diffStrategies {
		for _, limit := range diffBroadcastLimits {
			cfg := diffConfig(true, true, false, nil, limit)
			cq, err := runner.Compile(mkQuery(), env, strat, cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", name, strat, err)
			}
			rows, err := cq.InputRows(inputs)
			if err != nil {
				t.Fatalf("%s %s: %v", name, strat, err)
			}
			res := cq.ExecuteRowsOpts(context.Background(), rows, runner.NewRunContext(cfg, cq.Strategy), runner.ExecOptions{})
			if res.Failed() {
				t.Fatalf("%s %s: %v", name, strat, res.Err)
			}
			got, err := nestedOutput(cq, res)
			if err != nil {
				t.Fatalf("%s %s: %v", name, strat, err)
			}
			if !value.Equal(got, want) {
				t.Errorf("%s %s (bcast=%d): got %s, want %s\n%s",
					name, strat, limit, value.Format(got), value.Format(want), cq.Explain())
			}
		}
	}
}
