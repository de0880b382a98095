package dataflow

import (
	"time"

	"github.com/trance-go/trance/internal/value"
)

// Join performs an equi-join with d as the left input. Both sides are
// hash-partitioned on their key columns (shuffles are skipped for sides whose
// partitioning guarantee already matches), then joined per partition with a
// build-probe hash join; probe rows stream through any pending fused operator
// chain of the left side. Output rows are left ++ right. With leftOuter set,
// unmatched left rows survive padded with rightWidth NULL columns — the NULL
// machinery the Γ operators later cast away.
//
// Rows whose key contains a NULL never match (SQL semantics); under
// leftOuter they are preserved with NULL padding.
func (d *Dataset) Join(stage string, right *Dataset, lcols, rcols []int, rightWidth int, leftOuter bool) (*Dataset, error) {
	ls, err := d.RepartitionBy(stage+"/L", lcols)
	if err != nil {
		return nil, err
	}
	// Right must land on the same partition for equal keys: hash the key
	// values, not positions. RepartitionBy hashes column values, so equal
	// keys on both sides collide iff their value encodings match.
	rs, err := right.RepartitionBy(stage+"/R", rcols)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	parts := make([][]Row, len(ls.parts))
	joinErr := d.ctx.runParts(len(ls.parts), func(i int) error {
		var build *keyTable
		if i < len(rs.parts) {
			build = buildJoinMap(rs, i, rcols)
		}
		var out []Row
		ls.feed(i, func(l Row) {
			probeJoin(l, build, lcols, rightWidth, leftOuter, func(r Row) { out = append(out, r) })
		})
		parts[i] = out
		return nil
	})
	d.ctx.Metrics.AddStageWall(stage, time.Since(start))
	if joinErr != nil {
		return nil, joinErr
	}
	if err := d.ctx.checkPartitions(stage+"/out", parts); err != nil {
		return nil, err
	}
	out := &Dataset{ctx: d.ctx, parts: parts}
	out.partitioner = &Partitioner{Cols: lcols}
	return out, nil
}

// BroadcastJoin replicates the right side to every partition of the left and
// joins locally: no shuffle of the left at all — left rows stream through
// their fused chain straight into the probe. The broadcast volume is metered
// separately from shuffle (Spark likewise reports it apart). The left's
// partitioning guarantee is preserved — the property the skew-aware join of
// paper Figure 6 relies on to leave heavy keys where they are.
func (d *Dataset) BroadcastJoin(stage string, right *Dataset, lcols, rcols []int, rightWidth int, leftOuter bool) (*Dataset, error) {
	if d.err != nil {
		return nil, d.err
	}
	rrows := right.Collect()
	if right.err != nil {
		return nil, right.err
	}
	d.ctx.Metrics.BroadcastBytes.Add(value.SizeRows(rrows) * int64(d.ctx.Parallelism))
	start := time.Now()
	build := buildJoinMapRows(rrows, rcols)
	parts := make([][]Row, len(d.parts))
	joinErr := d.ctx.runParts(len(d.parts), func(i int) error {
		var out []Row
		d.feed(i, func(l Row) {
			probeJoin(l, build, lcols, rightWidth, leftOuter, func(r Row) { out = append(out, r) })
		})
		parts[i] = out
		return nil
	})
	d.ctx.Metrics.AddStageWall(stage, time.Since(start))
	if joinErr != nil {
		return nil, joinErr
	}
	if err := d.ctx.checkPartitions(stage+"/out", parts); err != nil {
		return nil, err
	}
	out := &Dataset{ctx: d.ctx, parts: parts}
	out.partitioner = d.partitioner
	return out, nil
}

// buildJoinMap builds the hash table over one partition of the right side,
// streaming through any pending fused chain.
func buildJoinMap(rs *Dataset, part int, rcols []int) *keyTable {
	build := newKeyTable(len(rs.parts[part]))
	var key []byte
	rs.feed(part, func(r Row) {
		if anyNullCols(r, rcols) {
			return
		}
		key = value.AppendKeyCols(key[:0], r, rcols)
		build.add(key, r)
	})
	return build
}

// buildJoinMapRows builds the hash table over collected rows (broadcast
// side). With rcols nil (cross join) every row lands under the empty key, so
// each probe matches all of them.
func buildJoinMapRows(rows []Row, rcols []int) *keyTable {
	build := newKeyTable(len(rows))
	var key []byte
	for _, r := range rows {
		if anyNullCols(r, rcols) {
			continue
		}
		key = value.AppendKeyCols(key[:0], r, rcols)
		build.add(key, r)
	}
	return build
}

// probeJoin probes one left row against the build table, emitting joined rows
// (or the NULL-padded row under leftOuter). The probe key is encoded into a
// stack array, so a short key costs no allocation.
func probeJoin(l Row, build *keyTable, lcols []int, rightWidth int, leftOuter bool, emit func(Row)) {
	var matches []Row
	if build != nil && !anyNullCols(l, lcols) {
		var scratch [64]byte
		matches = build.get(value.AppendKeyCols(scratch[:0], l, lcols))
	}
	if len(matches) == 0 {
		if leftOuter {
			emit(padRight(l, rightWidth))
		}
		return
	}
	for _, r := range matches {
		nr := make(Row, len(l)+len(r))
		copy(nr, l)
		copy(nr[len(l):], r)
		emit(nr)
	}
}

func anyNullCols(r Row, cols []int) bool {
	for _, c := range cols {
		if r[c] == nil {
			return true
		}
	}
	return false
}

func padRight(l Row, rightWidth int) Row {
	nr := make(Row, len(l)+rightWidth)
	copy(nr, l)
	return nr
}
