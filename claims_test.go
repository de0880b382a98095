package trance_test

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/trance-go/trance/internal/runner"
	"github.com/trance-go/trance/internal/shred"
	"github.com/trance-go/trance/internal/tpch"
	"github.com/trance-go/trance/internal/value"
)

// fig7aFails is the F cell set of the narrow Figure 7a grid at 150
// customers under benchConfig's cap: standard and Spark-SQL-style crash at
// nesting levels 3–4 of both nested-input classes, every shredded route and
// every flat-to-nested run survives. Keyed "class/level/strategy".
var fig7aFails = map[string]bool{
	"nested-to-nested/3/STANDARD":  true,
	"nested-to-nested/3/SPARK-SQL": true,
	"nested-to-nested/4/STANDARD":  true,
	"nested-to-nested/4/SPARK-SQL": true,
	"nested-to-flat/3/STANDARD":    true,
	"nested-to-flat/3/SPARK-SQL":   true,
	"nested-to-flat/4/STANDARD":    true,
	"nested-to-flat/4/SPARK-SQL":   true,
}

// fig7aRun compiles and executes one grid cell and returns the nested output
// (nil when the run failed) with the shuffled byte count.
func fig7aRun(t *testing.T, class tpch.QueryClass, level int, strat runner.Strategy, inputs map[string]value.Bag, cfg runner.Config) (value.Bag, int64, error) {
	t.Helper()
	cq, err := runner.Compile(tpch.Query(class, level, false), tpch.Env(class, level, false), strat, cfg)
	if err != nil {
		t.Fatalf("%s L%d %s: compile: %v", class, level, strat, err)
	}
	rows, err := cq.InputRows(inputs)
	if err != nil {
		return nil, 0, err
	}
	res := cq.ExecuteRowsOpts(context.Background(), rows, runner.NewRunContext(cfg, cq.Strategy),
		runner.ExecOptions{Indexes: cq.BuildIndexes(inputs)})
	if res.Failed() {
		return nil, 0, res.Err
	}
	if strat.IsShredded() && !strat.Unshreds() {
		var top []value.Tuple
		for _, r := range res.Shredded[cq.Mat.TopName].Collect() {
			top = append(top, value.Tuple(r))
		}
		dicts := map[string][]value.Tuple{}
		for _, d := range cq.Mat.Dicts {
			var rows []value.Tuple
			for _, r := range res.Shredded[d.Name].Collect() {
				rows = append(rows, value.Tuple(r))
			}
			dicts[strings.Join(d.Path, "_")] = rows
		}
		out, err := shred.UnshredValue(top, dicts, cq.Mat.OutType)
		if err != nil {
			t.Fatalf("%s L%d %s: unshred: %v", class, level, strat, err)
		}
		return out, res.Metrics.ShuffleBytes, nil
	}
	out := value.Bag{}
	for _, r := range res.Output.Collect() {
		out = append(out, value.Tuple(r))
	}
	return out, res.Metrics.ShuffleBytes, nil
}

// TestPaperClaimsFig7a pins the paper's qualitative Figure 7a results on the
// narrow TPC-H grid at the benchmarks' default scale (150 customers,
// benchConfig's per-partition cap):
//   - the F (worker crash) pattern per (class, level, strategy);
//   - every surviving strategy in a row returns the same bag (reals to a
//     relative 1e-9, since routes sum in different orders);
//   - for the nested-output classes, shred+unshred shuffles fewer bytes than
//     standard at nesting levels 1–3 (uncapped, so standard's level-3 crash
//     does not hide its shuffle). Nested-to-flat is exempt: there standard
//     shuffles less than shred at levels 1–2 and only loses by crashing at
//     levels 3–4.
func TestPaperClaimsFig7a(t *testing.T) {
	tables := tpch.Generate(tpch.Config{
		Customers: 150, OrdersPerCustomer: 6, LinesPerOrder: 4, Parts: 100, Seed: 1,
	})
	strategies := []runner.Strategy{runner.ShredUnshred, runner.Shred, runner.Standard, runner.SparkSQLStyle}
	for _, class := range []tpch.QueryClass{tpch.FlatToNested, tpch.NestedToNested, tpch.NestedToFlat} {
		for level := 0; level <= tpch.MaxLevel; level++ {
			inputs := map[string]value.Bag{}
			if class == tpch.FlatToNested {
				inputs = tables.Inputs()
			} else {
				inputs["NDB"] = tpch.BuildNested(tables, level, true)
				inputs["Part"] = tables.Part
			}
			cfg := benchConfig(inputBytes(inputs))
			var want value.Bag
			var wantFrom runner.Strategy
			for _, strat := range strategies {
				if class == tpch.NestedToFlat && strat == runner.ShredUnshred {
					strat = runner.Shred // unshredding a flat output is free
				}
				cellKey := fmt.Sprintf("%s/%d/%s", class, level, strat)
				got, _, err := fig7aRun(t, class, level, strat, inputs, cfg)
				if fail := err != nil; fail != fig7aFails[cellKey] {
					t.Errorf("%s: failed=%t (err %v), want failed=%t", cellKey, fail, err, fig7aFails[cellKey])
				}
				if err != nil {
					continue
				}
				if want == nil {
					want, wantFrom = got, strat
				} else if !approxEqual(got, want) {
					t.Errorf("%s: output differs from %s's (%d vs %d elements)", cellKey, wantFrom, len(got), len(want))
				}
			}
			if class == tpch.NestedToFlat || level < 1 || level > 3 {
				continue
			}
			uncapped := cfg
			uncapped.MaxPartitionBytes = 0
			_, shr, err := fig7aRun(t, class, level, runner.ShredUnshred, inputs, uncapped)
			if err != nil {
				t.Fatalf("%s L%d shred+unshred uncapped: %v", class, level, err)
			}
			_, std, err := fig7aRun(t, class, level, runner.Standard, inputs, uncapped)
			if err != nil {
				t.Fatalf("%s L%d standard uncapped: %v", class, level, err)
			}
			if shr >= std {
				t.Errorf("%s L%d: shred+unshred shuffled %d bytes, standard %d — want shred+unshred < standard", class, level, shr, std)
			}
		}
	}
}

// approxEqual is multiset equality of nested values with reals compared to
// a relative tolerance of 1e-9.
func approxEqual(a, b value.Value) bool {
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		return ok && math.Abs(x-y) <= 1e-9*math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
	case value.Tuple:
		y, ok := b.(value.Tuple)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !approxEqual(x[i], y[i]) {
				return false
			}
		}
		return true
	case value.Bag:
		y, ok := b.(value.Bag)
		if !ok || len(x) != len(y) {
			return false
		}
		// Pair elements in the order of their values rounded to 8
		// significant digits; if rounding splits near-equal neighbours,
		// fall back to matching every element with any unused equal one.
		xs, ys := byRounded(x), byRounded(y)
		paired := true
		for i := range xs {
			if !approxEqual(xs[i], ys[i]) {
				paired = false
				break
			}
		}
		if paired {
			return true
		}
		used := make([]bool, len(y))
	next:
		for _, e := range x {
			for j, f := range y {
				if !used[j] && approxEqual(e, f) {
					used[j] = true
					continue next
				}
			}
			return false
		}
		return true
	default:
		return value.Equal(a, b)
	}
}

// byRounded returns a copy of b sorted by its elements' rounded values.
func byRounded(b value.Bag) value.Bag {
	keys := make([]value.Value, len(b))
	idx := make([]int, len(b))
	for i, v := range b {
		keys[i], idx[i] = rounded(v), i
	}
	sort.Slice(idx, func(i, j int) bool { return value.Compare(keys[idx[i]], keys[idx[j]]) < 0 })
	out := make(value.Bag, len(b))
	for i, k := range idx {
		out[i] = b[k]
	}
	return out
}

// rounded replaces every real in v by its value at 8 significant digits.
func rounded(v value.Value) value.Value {
	switch x := v.(type) {
	case float64:
		r, _ := strconv.ParseFloat(strconv.FormatFloat(x, 'g', 8, 64), 64)
		return r
	case value.Tuple:
		out := make(value.Tuple, len(x))
		for i, e := range x {
			out[i] = rounded(e)
		}
		return out
	case value.Bag:
		out := make(value.Bag, len(x))
		for i, e := range x {
			out[i] = rounded(e)
		}
		return out
	default:
		return v
	}
}
