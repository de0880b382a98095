package main

import (
	"math"
	"sort"
	"strconv"

	"github.com/trance-go/trance/internal/value"
)

// floatTol is the relative tolerance between reals. Routes sum reals in
// different orders, so aggregates may differ in their last bits.
const floatTol = 1e-9

// approxEqual is multiset equality of nested values with reals compared
// to a relative tolerance.
func approxEqual(a, b value.Value) bool {
	switch x := a.(type) {
	case float64:
		y, ok := b.(float64)
		return ok && math.Abs(x-y) <= floatTol*math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
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
		return ok && bagsApproxEqual(x, y)
	default:
		return value.Equal(a, b)
	}
}

// bagsApproxEqual pairs the elements in a canonical order of their
// rounded values; if rounding put near-equal elements in different orders,
// it falls back to matching each element with any unused equal one.
func bagsApproxEqual(x, y value.Bag) bool {
	if len(x) != len(y) {
		return false
	}
	xs, ys := canonical(x), canonical(y)
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
	for _, e := range x {
		found := false
		for j, f := range y {
			if !used[j] && approxEqual(e, f) {
				used[j], found = true, true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// canonical sorts a copy of the bag by its elements' rounded values.
func canonical(b value.Bag) value.Bag {
	type keyed struct {
		key value.Value
		v   value.Value
	}
	ks := make([]keyed, len(b))
	for i, v := range b {
		ks[i] = keyed{round(v), v}
	}
	sort.Slice(ks, func(i, j int) bool { return value.Compare(ks[i].key, ks[j].key) < 0 })
	out := make(value.Bag, len(b))
	for i, k := range ks {
		out[i] = k.v
	}
	return out
}

// round replaces every real by its value at 8 significant digits.
func round(v value.Value) value.Value {
	switch x := v.(type) {
	case float64:
		r, _ := strconv.ParseFloat(strconv.FormatFloat(x, 'g', 8, 64), 64)
		return r
	case value.Tuple:
		out := make(value.Tuple, len(x))
		for i, e := range x {
			out[i] = round(e)
		}
		return out
	case value.Bag:
		out := make(value.Bag, len(x))
		for i, e := range x {
			out[i] = round(e)
		}
		return out
	default:
		return v
	}
}
