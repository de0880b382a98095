package value

import (
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestDate(t *testing.T) {
	d := MakeDate(1997, 3, 9)
	if d.Year() != 1997 || d.Month() != 3 || d.Day() != 9 {
		t.Fatalf("date components wrong: %v", d)
	}
	if d.String() != "1997-03-09" {
		t.Fatalf("date string: %s", d.String())
	}
	if MakeDate(1996, 12, 31) >= d {
		t.Fatal("date order broken")
	}
}

func TestCompareScalars(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{int64(1), int64(2), -1},
		{int64(2), int64(2), 0},
		{int64(3), int64(2), 1},
		{"a", "b", -1},
		{true, false, 1},
		{nil, int64(0), -1},
		{nil, nil, 0},
		{1.5, 1.5, 0},
		{int64(2), 2.0, 0}, // numeric cross-type
		{int64(2), 2.5, -1},
		{MakeDate(1995, 1, 1), MakeDate(1995, 1, 2), -1},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); sign(got) != c.want {
			t.Errorf("Compare(%v,%v)=%d want %d", c.a, c.b, got, c.want)
		}
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

func TestBagMultisetEquality(t *testing.T) {
	a := Bag{int64(1), int64(2), int64(2)}
	b := Bag{int64(2), int64(1), int64(2)}
	c := Bag{int64(1), int64(2)}
	if !Equal(a, b) {
		t.Fatal("bags with same multiset should be equal")
	}
	if Equal(a, c) {
		t.Fatal("bags with different multiplicities must differ")
	}
}

func TestNestedEquality(t *testing.T) {
	v1 := Tuple{"alice", Bag{Tuple{MakeDate(2020, 1, 1), Bag{Tuple{int64(1), 2.5}}}}}
	v2 := Tuple{"alice", Bag{Tuple{MakeDate(2020, 1, 1), Bag{Tuple{int64(1), 2.5}}}}}
	if !Equal(v1, v2) {
		t.Fatal("deep equal failed")
	}
	v3 := Clone(v1).(Tuple)
	v3[1].(Bag)[0].(Tuple)[1].(Bag)[0].(Tuple)[1] = 3.5
	if Equal(v1, v3) {
		t.Fatal("mutated clone should differ")
	}
	// Clone must not share structure.
	if Equal(v1, v3) {
		t.Fatal("clone shares structure with original")
	}
}

func TestLabelReuse(t *testing.T) {
	inner := Label{Site: 7, Payload: Tuple{int64(42)}}
	got := NewLabel(9, inner)
	if !Equal(got, inner) {
		t.Fatalf("single-label payload must reuse label, got %v", Format(got))
	}
	composite := NewLabel(9, inner, int64(1))
	l := composite.(Label)
	if l.Site != 9 || len(l.Payload) != 2 {
		t.Fatalf("composite label wrong: %v", Format(composite))
	}
}

func TestKeyInjective(t *testing.T) {
	vals := []Value{
		nil, true, false, int64(0), int64(1), 0.0, 1.0, "", "a", "ab",
		MakeDate(2020, 5, 5), int64(20200505), // Date vs int64 with same bits
		Label{Site: 1, Payload: Tuple{int64(1)}},
		Label{Site: 2, Payload: Tuple{int64(1)}},
		Tuple{int64(1), int64(2)},
		Tuple{Tuple{int64(1)}, int64(2)},
		Tuple{"a", "b"},
		Tuple{"ab", ""}, // concatenation attack
	}
	seen := map[string]Value{}
	for _, v := range vals {
		k := Key(v)
		if prev, dup := seen[k]; dup {
			t.Fatalf("key collision: %v vs %v", Format(prev), Format(v))
		}
		seen[k] = v
	}
}

func TestKeyColsMatchesKey(t *testing.T) {
	row := Tuple{int64(1), "x", nil}
	if KeyCols(row, []int{0, 2}) != Key(int64(1))+Key(nil) {
		t.Fatal("KeyCols must concatenate per-column keys")
	}
}

func TestAllNull(t *testing.T) {
	row := Tuple{nil, int64(1), nil}
	if !AllNull(row, []int{0, 2}) {
		t.Fatal("expected all null")
	}
	if AllNull(row, []int{0, 1}) {
		t.Fatal("expected not all null")
	}
	if !AllNull(row, nil) {
		t.Fatal("empty column set is vacuously all-null")
	}
}

func TestSizeMonotone(t *testing.T) {
	small := Tuple{int64(1)}
	big := Tuple{int64(1), "hello world", Bag{Tuple{int64(1), int64(2)}}}
	if Size(small) >= Size(big) {
		t.Fatal("size should grow with content")
	}
	if SizeRows([]Tuple{small, small}) != 2*Size(small) {
		t.Fatal("SizeRows should sum")
	}
}

func TestFormatDeterministic(t *testing.T) {
	a := Bag{Tuple{int64(2)}, Tuple{int64(1)}}
	b := Bag{Tuple{int64(1)}, Tuple{int64(2)}}
	if Format(a) != Format(b) {
		t.Fatalf("bag formatting must canonicalize: %s vs %s", Format(a), Format(b))
	}
}

// randomFlat produces a random flat value (scalar or label), the domain of
// keys.
func randomFlat(r *rand.Rand, depth int) Value {
	switch r.Intn(7) {
	case 0:
		return nil
	case 1:
		return r.Int63n(100)
	case 2:
		return float64(r.Intn(100)) / 4
	case 3:
		return string(rune('a' + r.Intn(26)))
	case 4:
		return r.Intn(2) == 0
	case 5:
		return MakeDate(1990+r.Intn(30), 1+r.Intn(12), 1+r.Intn(28))
	default:
		if depth > 2 {
			return r.Int63n(10)
		}
		n := r.Intn(3)
		p := make(Tuple, n)
		for i := range p {
			p[i] = randomFlat(r, depth+1)
		}
		return Label{Site: int32(r.Intn(4)), Payload: p}
	}
}

func TestQuickKeyConsistency(t *testing.T) {
	// Property: Key(a)==Key(b) ⇔ Compare(a,b)==0 for flat values, modulo the
	// numeric cross-type case (int64 vs float64 keys differ by design: keys
	// are used only within homogeneous columns).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomFlat(r, 0), randomFlat(r, 0)
		_, aInt := a.(int64)
		_, bFloat := b.(float64)
		_, aFloat := a.(float64)
		_, bInt := b.(int64)
		if (aInt && bFloat) || (aFloat && bInt) {
			return true
		}
		return (Key(a) == Key(b)) == (Compare(a, b) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCompareTotalOrder(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b, c := randomFlat(r, 0), randomFlat(r, 0), randomFlat(r, 0)
		// Antisymmetry.
		if sign(Compare(a, b)) != -sign(Compare(b, a)) {
			return false
		}
		// Transitivity over a <= b <= c.
		if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCloneEqual(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := Tuple{randomFlat(r, 0), Bag{randomFlat(r, 0), randomFlat(r, 0)}}
		cl := Clone(v)
		if !Equal(v, cl) {
			return false
		}
		// reflect.DeepEqual is stricter (ordered); should also hold for a
		// structural clone.
		return reflect.DeepEqual(v, cl)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestParseDate(t *testing.T) {
	d, ok := ParseDate("2020-01-15")
	if !ok || d != MakeDate(2020, 1, 15) {
		t.Fatalf("ParseDate: %v %v", d, ok)
	}
	if d.String() != "2020-01-15" {
		t.Fatalf("round trip: %s", d.String())
	}
	for _, bad := range []string{"", "2020-1-15", "2020/01/15", "2020-13-01", "2020-01-32", "2020-00-10", "not-a-date!", "20200115x-"} {
		if _, ok := ParseDate(bad); ok {
			t.Fatalf("ParseDate(%q) should fail", bad)
		}
	}
}

// genKeyValue draws a random flat value: every kind AppendKey encodes,
// including labels with tuple payloads and nested tuples.
func genKeyValue(r *rand.Rand, depth int) Value {
	kinds := 9
	if depth <= 0 {
		kinds = 7 // scalars only
	}
	switch r.Intn(kinds) {
	case 0:
		return nil
	case 1:
		return r.Intn(2) == 0
	case 2:
		return r.Int63() - r.Int63()
	case 3:
		switch r.Intn(4) {
		case 0:
			return math.Copysign(0, -1)
		case 1:
			return math.Inf(1)
		}
		return r.NormFloat64() * 1e6
	case 4:
		return MakeDate(1990+r.Intn(20), 1+r.Intn(12), 1+r.Intn(28))
	case 5:
		b := make([]byte, r.Intn(80)) // crosses the 64-byte probe scratch
		r.Read(b)
		return string(b)
	case 6:
		return ""
	case 7:
		n := r.Intn(3)
		payload := make(Tuple, n)
		for i := range payload {
			payload[i] = genKeyValue(r, depth-1)
		}
		return Label{Site: int32(r.Intn(1000)), Payload: payload}
	default:
		t := make(Tuple, r.Intn(4))
		for i := range t {
			t[i] = genKeyValue(r, depth-1)
		}
		return t
	}
}

func fnvOf(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// TestHashMatchesKeyEncoding pins the hash to the canonical encoding: the
// buffer-free HashCols and Hash64 must equal FNV-1a over the AppendKey bytes,
// which is what partition placement was defined as before they stopped
// materializing those bytes.
func TestHashMatchesKeyEncoding(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		row := make(Tuple, 1+r.Intn(5))
		for j := range row {
			row[j] = genKeyValue(r, 3)
		}
		var cols []int
		for j := range row {
			if r.Intn(3) > 0 {
				cols = append(cols, j)
			}
		}
		enc := AppendKeyCols(nil, row, cols)
		if got, want := HashCols(row, cols), fnvOf(enc); got != want {
			t.Fatalf("HashCols(%s, %v) = %x, FNV-1a of its encoding = %x", Format(row), cols, got, want)
		}
		if KeyCols(row, cols) != string(enc) {
			t.Fatalf("KeyCols(%s, %v) differs from AppendKeyCols", Format(row), cols)
		}
		for _, v := range row {
			if got, want := Hash64(v), fnvOf(AppendKey(nil, v)); got != want {
				t.Fatalf("Hash64(%s) = %x, FNV-1a of its encoding = %x", Format(v), got, want)
			}
		}
	}
}

// TestNegativeZeroKeysAsZero: Compare treats -0.0 and 0.0 as equal, so they
// must share a key and a hash.
func TestNegativeZeroKeysAsZero(t *testing.T) {
	neg := math.Copysign(0, -1)
	if Key(neg) != Key(0.0) || Hash64(neg) != Hash64(0.0) {
		t.Fatal("-0.0 and 0.0 must encode and hash alike")
	}
	if Key(1.0) == Key(int64(1)) {
		t.Fatal("int and real keys must stay apart")
	}
}

// TestHashColsDoesNotAllocate: partition routing hashes every shuffled row.
func TestHashColsDoesNotAllocate(t *testing.T) {
	row := Tuple{int64(42), "customer#000000042", 3.5, MakeDate(1996, 1, 2), Label{Site: 3, Payload: Tuple{int64(1)}}}
	cols := []int{0, 1, 2, 3, 4}
	if n := testing.AllocsPerRun(100, func() { HashCols(row, cols) }); n != 0 {
		t.Fatalf("HashCols allocated %.1f times per call", n)
	}
}
