package dataflow

import (
	"fmt"
	"testing"
)

func benchRows(n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{int64(i % 97), int64(i), fmt.Sprintf("payload-%d", i%13)}
	}
	return rows
}

// BenchmarkShuffle measures the engine's hash repartitioning throughput —
// the dominant cost of every distributed strategy.
func BenchmarkShuffle(b *testing.B) {
	rows := benchRows(50_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := NewContext(8)
		if _, err := c.FromRows(rows).RepartitionBy("b", []int{0}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHashJoin measures the build-probe equi-join.
func BenchmarkHashJoin(b *testing.B) {
	left := benchRows(20_000)
	right := benchRows(5_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := NewContext(8)
		l := c.FromRows(left)
		r := c.FromRows(right)
		if _, err := l.Join("b", r, []int{0}, []int{0}, 3, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBroadcastJoin measures the shuffle-free broadcast variant used
// for small inputs and skewed heavy keys.
func BenchmarkBroadcastJoin(b *testing.B) {
	left := benchRows(20_000)
	right := benchRows(500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := NewContext(8)
		l := c.FromRows(left)
		r := c.FromRows(right)
		if _, err := l.BroadcastJoin("b", r, []int{0}, []int{0}, 3, false); err != nil {
			b.Fatal(err)
		}
	}
}

// narrowChain applies the benchmark's three-operator narrow chain to d.
func narrowChain(d *Dataset) *Dataset {
	return d.
		Map(func(r Row) Row { return Row{r[0], r[1].(int64) * 3, r[2]} }).
		Filter(func(r Row) bool { return r[1].(int64)%2 == 0 }).
		Map(func(r Row) Row { return Row{r[0], r[1]} })
}

// BenchmarkNarrowChainFused measures a map→filter→map chain executed the
// pipelined way: one fused pass, no intermediate partitions.
func BenchmarkNarrowChainFused(b *testing.B) {
	rows := benchRows(50_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := NewContext(8)
		if narrowChain(c.FromRows(rows)).Count() != 25_000 {
			b.Fatal("wrong count")
		}
	}
}

// BenchmarkNarrowChainMaterialized measures the same chain with every
// intermediate forced — how the engine executed before operator fusion.
func BenchmarkNarrowChainMaterialized(b *testing.B) {
	rows := benchRows(50_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := NewContext(8)
		d := c.FromRows(rows)
		d = d.Map(func(r Row) Row { return Row{r[0], r[1].(int64) * 3, r[2]} })
		d.force()
		d = d.Filter(func(r Row) bool { return r[1].(int64)%2 == 0 })
		d.force()
		d = d.Map(func(r Row) Row { return Row{r[0], r[1]} })
		d.force()
		if d.Count() != 25_000 {
			b.Fatal("wrong count")
		}
	}
}

// BenchmarkFusedShuffle measures a narrow chain flowing straight into a
// shuffle — the map side consumes the fused chain without materializing the
// pre-shuffle dataset.
func BenchmarkFusedShuffle(b *testing.B) {
	rows := benchRows(50_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := NewContext(8)
		if _, err := narrowChain(c.FromRows(rows)).RepartitionBy("b", []int{0}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGroupReduce measures key-based reduction (the engine primitive
// under Γ⊎ and Γ+).
func BenchmarkGroupReduce(b *testing.B) {
	rows := benchRows(50_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := NewContext(8)
		_, err := c.FromRows(rows).GroupReduce("b", []int{0}, func(rs []Row) []Row {
			var s int64
			for _, r := range rs {
				s += r[1].(int64)
			}
			return []Row{{rs[0][0], s}}
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
