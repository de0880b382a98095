package dataflow

import (
	"time"

	"github.com/trance-go/trance/internal/value"
)

// RepartitionBy hash-partitions the dataset on the given key columns. If the
// dataset already carries an identical partitioning guarantee the shuffle is
// skipped entirely — this is how partitioning guarantees cut data movement
// (paper Section 3). Every row moved through the shuffle is metered.
func (d *Dataset) RepartitionBy(stage string, cols []int) (*Dataset, error) {
	if d.err != nil {
		return nil, d.err
	}
	want := &Partitioner{Cols: cols}
	if !d.ctx.DisableGuarantees && d.partitioner.equal(want) && len(d.parts) == d.ctx.Parallelism {
		d.ctx.Metrics.SkippedShuffles.Add(1)
		return d, nil
	}
	out, err := d.shuffle(stage, func(int) func(Row) uint64 {
		return func(r Row) uint64 { return value.HashCols(r, cols) }
	})
	if err != nil {
		return nil, err
	}
	out.partitioner = want
	return out, nil
}

// shuffle redistributes rows into Parallelism partitions. hashFor builds one
// hash function per source partition, so stateful routing (Rebalance's
// round-robin counter) stays partition-local and race-free.
//
// The exchange is pipelined: each map-side task streams its partition through
// the dataset's fused narrow-operator chain directly into P per-target row
// buckets — the pre-shuffle map/filter chain is never materialized — and
// meters each bucket once. Each reduce-side task then concatenates its
// (source,target) buckets. Both sides run goroutine-per-partition on the
// bounded worker pool. The map side's per-bucket byte counts, summed per
// target, are the reduce-side partition sizes the memory cap checks, so no
// shuffled row is sized twice.
func (d *Dataset) shuffle(stage string, hashFor func(part int) func(Row) uint64) (*Dataset, error) {
	c := d.ctx
	p := c.Parallelism
	c.Metrics.Stages.Add(1)
	start := time.Now()

	if d.err != nil {
		return nil, d.err
	}

	// Map side: source partition i streams into buckets[i][t] for target t
	// and records each bucket's metered size in sizes[i][t].
	buckets := make([][][]Row, len(d.parts))
	sizes := make([][]int64, len(d.parts))
	mapErr := c.runParts(len(d.parts), func(i int) error {
		local := make([][]Row, p)
		// Pre-size every per-target slice for a uniform spread of this
		// source's rows — a capacity hint only, skew just grows past it.
		hint := len(d.parts[i])/p + 1
		for t := range local {
			local[t] = make([]Row, 0, hint)
		}
		hash := hashFor(i)
		d.feed(i, func(r Row) {
			t := int(hash(r) % uint64(p))
			local[t] = append(local[t], r)
		})
		sz := make([]int64, p)
		var bytes, recs int64
		for t := range local {
			sz[t] = value.SizeRows(local[t])
			bytes += sz[t]
			recs += int64(len(local[t]))
		}
		buckets[i], sizes[i] = local, sz
		c.Metrics.ShuffleBytes.Add(bytes)
		c.Metrics.ShuffleRecords.Add(recs)
		c.Metrics.addStageShuffle(stage, bytes)
		return nil
	})
	if mapErr != nil {
		c.Metrics.AddStageWall(stage, time.Since(start))
		return nil, mapErr
	}

	// Reduce side: each target partition concatenates its row buckets and
	// sums their metered sizes.
	parts := make([][]Row, p)
	partBytes := make([]int64, p)
	reduceErr := c.runParts(p, func(t int) error {
		var n int
		for i := range buckets {
			n += len(buckets[i][t])
			partBytes[t] += sizes[i][t]
		}
		rows := make([]Row, 0, n)
		for i := range buckets {
			rows = append(rows, buckets[i][t]...)
		}
		parts[t] = rows
		return nil
	})
	c.Metrics.AddStageWall(stage, time.Since(start))
	if reduceErr != nil {
		return nil, reduceErr
	}
	if err := c.recordPartitions(stage, partBytes, parts); err != nil {
		return nil, err
	}
	return &Dataset{ctx: c, parts: parts}, nil
}

// Rebalance redistributes rows round-robin (no key), dropping any guarantee.
// Used to spread data evenly, e.g. after a highly selective filter. The
// round-robin counter is per source partition (offset by the partition index
// so sources do not all target the same sequence), keeping the map side free
// of shared state.
func (d *Dataset) Rebalance(stage string) (*Dataset, error) {
	return d.shuffle(stage, func(part int) func(Row) uint64 {
		i := uint64(part)
		return func(Row) uint64 {
			i++
			return i
		}
	})
}
