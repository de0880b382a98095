package dataflow

import (
	"time"

	"github.com/trance-go/trance/internal/value"
)

// GroupReduce hash-partitions by the key columns (skipping the shuffle when
// the guarantee already holds) and applies reduce to every key group,
// streaming rows through any pending fused operator chain into the group
// table. The groups slice passed to reduce contains all rows sharing the
// composite key; rows keep their original layout. The result carries no
// guarantee; callers that keep key columns in place can reinstate it with
// WithPartitioner.
func (d *Dataset) GroupReduce(stage string, cols []int, reduce func(rows []Row) []Row) (*Dataset, error) {
	sh, err := d.RepartitionBy(stage, cols)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	parts := make([][]Row, len(sh.parts))
	reduceErr := d.ctx.runParts(len(sh.parts), func(i int) error {
		groups := newKeyTable(0)
		var key []byte
		sh.feed(i, func(r Row) {
			key = value.AppendKeyCols(key[:0], r, cols)
			groups.add(key, r)
		})
		var out []Row
		for _, rows := range groups.groups {
			out = append(out, reduce(rows)...)
		}
		parts[i] = out
		return nil
	})
	d.ctx.Metrics.AddStageWall(stage+"/reduce", time.Since(start))
	if reduceErr != nil {
		return nil, reduceErr
	}
	if err := d.ctx.checkPartitions(stage+"/reduce", parts); err != nil {
		return nil, err
	}
	return &Dataset{ctx: d.ctx, parts: parts}, nil
}

// keyTable groups rows by their encoded composite key (value.AppendKeyCols),
// keeping groups in first-seen order. Callers encode into a reused buffer;
// lookups convert it with string(key) inside the map index, which Go does
// not allocate for, so only inserting a new distinct key allocates a string.
type keyTable struct {
	index  map[string]int
	groups [][]Row
}

func newKeyTable(capacity int) *keyTable {
	return &keyTable{index: make(map[string]int, capacity)}
}

// add appends r to the group of key.
func (t *keyTable) add(key []byte, r Row) {
	g, ok := t.index[string(key)]
	if !ok {
		g = len(t.groups)
		t.index[string(key)] = g
		t.groups = append(t.groups, nil)
	}
	t.groups[g] = append(t.groups[g], r)
}

// get returns the rows of key, or nil.
func (t *keyTable) get(key []byte) []Row {
	if g, ok := t.index[string(key)]; ok {
		return t.groups[g]
	}
	return nil
}

// WithPartitioner asserts a partitioning guarantee on the dataset. It is the
// caller's responsibility that the assertion holds (used by executor
// operators whose output provably keeps key co-location).
func (d *Dataset) WithPartitioner(cols []int) *Dataset {
	d.partitioner = &Partitioner{Cols: cols}
	return d
}

// Distinct removes duplicate rows (whole-row key). Implements the paper's
// dedup over flat bags: one shuffle, then per-partition elimination. Pending
// stages are materialized first because the key spans every output column.
func (d *Dataset) Distinct(stage string) (*Dataset, error) {
	if err := d.force(); err != nil {
		return nil, err
	}
	width := 0
	for _, p := range d.parts {
		if len(p) > 0 {
			width = len(p[0])
			break
		}
	}
	cols := make([]int, width)
	for i := range cols {
		cols[i] = i
	}
	return d.GroupReduce(stage, cols, func(rows []Row) []Row { return rows[:1] })
}
