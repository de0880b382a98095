package dataflow

import (
	"testing"

	"github.com/trance-go/trance/internal/value"
)

// TestProbeDoesNotAllocateKey: probing a built join table encodes the key
// into a stack array, so a miss costs nothing and a hit costs only the
// joined output row.
func TestProbeDoesNotAllocateKey(t *testing.T) {
	build := buildJoinMapRows([]Row{{int64(1), "x"}, {int64(2), "y"}}, []int{0})
	cols := []int{0}
	miss, hit := Row{int64(9)}, Row{int64(2)}
	emitted := 0
	emit := func(Row) { emitted++ }
	if n := testing.AllocsPerRun(100, func() { probeJoin(miss, build, cols, 2, false, emit) }); n != 0 {
		t.Fatalf("probe miss allocated %.1f times", n)
	}
	if n := testing.AllocsPerRun(100, func() { probeJoin(hit, build, cols, 2, false, emit) }); n != 1 {
		t.Fatalf("probe hit allocated %.1f times, want 1 (the joined row)", n)
	}
	if emitted == 0 {
		t.Fatal("probe hit emitted nothing")
	}
}

// TestGroupReduceAllocatesNoKeyPerRow: grouping N rows into K groups
// allocates one key string per distinct key, not one per row. The budget
// below is far under N; building a key per row would exceed it.
func TestGroupReduceAllocatesNoKeyPerRow(t *testing.T) {
	const n, k = 4096, 8
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{int64(i % k), "group-key-padding-beyond-sixty-four-bytes-so-a-string-is-not-tiny", int64(i)}
	}
	c := NewContext(1)
	c.Workers = 1
	d := c.FromRows(rows).WithPartitioner([]int{0, 1}) // no shuffle: measure the reduce side
	var groups int64
	allocs := testing.AllocsPerRun(5, func() {
		out, err := d.GroupReduce("g", []int{0, 1}, func(rs []Row) []Row { return rs[:1] })
		if err != nil {
			t.Fatal(err)
		}
		groups = out.Count()
	})
	if groups != k {
		t.Fatalf("got %d groups, want %d", groups, k)
	}
	if allocs > n/16 {
		t.Fatalf("GroupReduce over %d rows / %d keys allocated %.0f times: a key per row?", n, k, allocs)
	}
}

// TestKeyTableKeepsFirstSeenOrder: groups come out in the order their keys
// first appear, which GroupReduce's output order relies on.
func TestKeyTableKeepsFirstSeenOrder(t *testing.T) {
	kt := newKeyTable(0)
	for _, v := range []int64{3, 1, 3, 2, 1} {
		kt.add(value.AppendKey(nil, v), Row{v})
	}
	var got []int64
	for _, g := range kt.groups {
		got = append(got, g[0][0].(int64))
	}
	if len(got) != 3 || got[0] != 3 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("group order %v, want [3 1 2]", got)
	}
	if len(kt.get(value.AppendKey(nil, int64(1)))) != 2 || kt.get(value.AppendKey(nil, int64(5))) != nil {
		t.Fatal("get returned the wrong rows")
	}
}
