package dataflow

import (
	"errors"
	"sort"
	"sync"

	"github.com/trance-go/trance/internal/value"
)

// rowBufPool recycles the BatchSize row-header buffers used by the batching
// stages (FilterVec/MapVec). Stage factories run once per partition, and
// shredded plans instantiate many small partitions — allocating a fresh 24KB
// buffer each time dominated the vectorized path's allocation profile. Buffers
// are fetched lazily on the first row and returned at flush, the one point
// feed guarantees a stage is done emitting.
var rowBufPool = sync.Pool{New: func() any {
	s := make([]Row, 0, BatchSize)
	return &s
}}

func getRowBuf() *[]Row { return rowBufPool.Get().(*[]Row) }

// putRowBuf clears the buffered row headers (so pooled buffers don't pin row
// memory) and returns the buffer to the pool; always returns nil for
// assignment back to the owner.
func putRowBuf(bufp *[]Row) *[]Row {
	if bufp != nil {
		b := (*bufp)[:cap(*bufp)]
		clear(b)
		*bufp = b[:0]
		rowBufPool.Put(bufp)
	}
	return nil
}

// Partitioner records a key-based partitioning guarantee: all rows whose
// composite key over Cols is equal live in the same partition.
type Partitioner struct {
	Cols []int
}

// equal reports whether two guarantees are the same column sequence.
func (p *Partitioner) equal(o *Partitioner) bool {
	if p == nil || o == nil {
		return false
	}
	if len(p.Cols) != len(o.Cols) {
		return false
	}
	for i := range p.Cols {
		if p.Cols[i] != o.Cols[i] {
			return false
		}
	}
	return true
}

// stageFn is one fused narrow operator: it transforms a single input row into
// zero or more output rows via emit.
type stageFn func(r Row, emit func(Row))

// stage is one instantiated fused operator. Row-at-a-time operators populate
// only fn. Batching operators (the vectorized filter/map stages) additionally
// set flush, called once after the partition's last row so a buffered partial
// batch still reaches the downstream chain.
type stage struct {
	fn    stageFn
	flush func(emit func(Row))
}

// stageFactory instantiates a stage for one partition. Stages that carry
// per-partition state (AddUniqueID's sequence counter, a vectorized stage's
// batch buffer) get a fresh instance per partition per pass, which keeps
// replays deterministic and parallel passes race-free.
type stageFactory func(part int) stage

// Dataset is a partitioned collection of rows bound to a Context. Rows are
// never mutated, but the Dataset itself is lazy with respect to narrow
// operators: parts holds the materialized source partitions and stages the
// pending fused operator chain. Wide operators and actions stream rows
// through the chain (one pass, no intermediate slices); force caches the
// result in place when a caller needs the materialized rows themselves.
//
// Driving a Dataset — operators and actions — is a single-goroutine (driver)
// activity: force mutates parts/stages without synchronization. Publish a
// dataset to concurrent readers only after Force.
type Dataset struct {
	ctx         *Context
	parts       [][]Row
	stages      []stageFactory
	partitioner *Partitioner
	// err poisons the dataset after a partition task failed (memory cap or a
	// recovered panic): operators and actions keep returning it instead of
	// computing over partial data.
	err error
}

// FromRows distributes rows round-robin over Parallelism partitions. Inputs
// that have not been altered by an operator carry no partitioning guarantee
// (paper Section 3).
func (c *Context) FromRows(rows []Row) *Dataset {
	n := c.Parallelism
	parts := make([][]Row, n)
	per := (len(rows) + n - 1) / n
	for i := range parts {
		lo := i * per
		hi := lo + per
		if lo > len(rows) {
			lo = len(rows)
		}
		if hi > len(rows) {
			hi = len(rows)
		}
		parts[i] = rows[lo:hi]
	}
	return &Dataset{ctx: c, parts: parts}
}

// FromPartitions wraps pre-partitioned rows; used by tests and by operators.
func (c *Context) FromPartitions(parts [][]Row) *Dataset {
	return &Dataset{ctx: c, parts: parts}
}

// Empty returns an empty dataset with the context's parallelism.
func (c *Context) Empty() *Dataset {
	return &Dataset{ctx: c, parts: make([][]Row, c.Parallelism)}
}

// Context returns the engine context the dataset is bound to.
func (d *Dataset) Context() *Context { return d.ctx }

// NumPartitions returns the partition count (narrow operators never change
// it).
func (d *Dataset) NumPartitions() int { return len(d.parts) }

// Partitioner returns the current partitioning guarantee, or nil.
func (d *Dataset) Partitioner() *Partitioner { return d.partitioner }

// withStage returns a new dataset with one more fused narrow operator. The
// stage slice is copied, never shared, so sibling datasets derived from the
// same parent cannot alias each other's chains.
func (d *Dataset) withStage(f stageFactory) *Dataset {
	stages := make([]stageFactory, len(d.stages)+1)
	copy(stages, d.stages)
	stages[len(d.stages)] = f
	return &Dataset{ctx: d.ctx, parts: d.parts, stages: stages, err: d.err}
}

// feed streams partition part through the fused operator chain into sink.
// This is the pipelined execution path: a row travels Map → Filter → … →
// sink without any intermediate partition ever being allocated. Batching
// stages are flushed upstream-first after the last source row, so a partial
// batch flushed out of stage i still flows through stages i+1…n (and their
// flushes, in turn).
func (d *Dataset) feed(part int, sink func(Row)) {
	type boundFlush struct {
		flush func(emit func(Row))
		next  func(Row)
	}
	emit := sink
	var flushes []boundFlush
	for i := len(d.stages) - 1; i >= 0; i-- {
		st := d.stages[i](part)
		next := emit
		emit = func(r Row) { st.fn(r, next) }
		if st.flush != nil {
			flushes = append(flushes, boundFlush{st.flush, next})
		}
	}
	for _, r := range d.parts[part] {
		emit(r)
	}
	for i := len(flushes) - 1; i >= 0; i-- {
		flushes[i].flush(flushes[i].next)
	}
}

// force runs the pending fused chain (in parallel over the worker pool) and
// caches the materialized partitions in place, returning (and recording) the
// first failure. Idempotent; a dataset with no pending stages is already
// materialized.
func (d *Dataset) force() error {
	if len(d.stages) == 0 {
		return d.err
	}
	parts := make([][]Row, len(d.parts))
	err := d.ctx.runParts(len(d.parts), func(i int) error {
		var out []Row
		d.feed(i, func(r Row) { out = append(out, r) })
		parts[i] = out
		return nil
	})
	d.parts = parts
	d.stages = nil
	if err != nil && d.err == nil {
		d.err = err
	}
	return d.err
}

// Force materializes any pending fused stages in place and returns d. Wide
// operators and actions force automatically; callers that publish a dataset
// to concurrent readers, or that time a run, force explicitly first so no
// deferred work escapes them. Check Err afterwards: a recovered partition
// panic or memory-cap hit poisons the dataset instead of crashing.
func (d *Dataset) Force() *Dataset {
	d.force()
	return d
}

// Err reports the failure that poisoned the dataset, if any.
func (d *Dataset) Err() error { return d.err }

// Count returns the total number of rows, materializing pending stages.
func (d *Dataset) Count() int64 {
	d.force()
	var n int64
	for _, p := range d.parts {
		n += int64(len(p))
	}
	return n
}

// SizeBytes estimates the total materialized size.
func (d *Dataset) SizeBytes() int64 {
	d.force()
	var s int64
	for _, p := range d.parts {
		s += value.SizeRows(p)
	}
	return s
}

// Collect gathers all rows into one slice (driver-side action).
func (d *Dataset) Collect() []Row {
	d.force()
	out := make([]Row, 0, d.Count())
	for _, p := range d.parts {
		out = append(out, p...)
	}
	return out
}

// CollectSorted gathers all rows in the deterministic value order, for tests
// and reproducible output.
func (d *Dataset) CollectSorted() []Row {
	rows := d.Collect()
	sort.Slice(rows, func(i, j int) bool {
		return value.Compare(value.Tuple(rows[i]), value.Tuple(rows[j])) < 0
	})
	return rows
}

// Map applies fn to every row. Narrow, fused, and lazy: nothing runs until a
// wide operator or action consumes the dataset. Preserves partitioning only
// if the caller says key columns survive — use MapPreserving for that.
func (d *Dataset) Map(fn func(Row) Row) *Dataset {
	return d.withStage(func(int) stage {
		return stage{fn: func(r Row, emit func(Row)) { emit(fn(r)) }}
	})
}

// MapPreserving is Map for transformations that leave the key columns of the
// current partitioning guarantee intact at the same positions, so the
// guarantee survives (e.g. value-side projections of a dictionary).
func (d *Dataset) MapPreserving(fn func(Row) Row) *Dataset {
	out := d.Map(fn)
	out.partitioner = d.partitioner
	return out
}

// Filter keeps rows satisfying pred. Narrow, fused, lazy; preserves the
// partitioning guarantee.
func (d *Dataset) Filter(pred func(Row) bool) *Dataset {
	out := d.withStage(func(int) stage {
		return stage{fn: func(r Row, emit func(Row)) {
			if pred(r) {
				emit(r)
			}
		}}
	})
	out.partitioner = d.partitioner
	return out
}

// FilterVec keeps rows satisfying a batched predicate. Rows are buffered into
// BatchSize windows; pred sees one window at a time and returns its selection
// bitmap (typically produced by the vector kernels over transposed columns).
// Selected rows are emitted
// untouched — no reconstruction from columns — so results are bit-identical
// to Filter with the equivalent row predicate. Narrow, fused, lazy; preserves
// the partitioning guarantee.
func (d *Dataset) FilterVec(pred func(rows []Row) Bitmap) *Dataset {
	m := &d.ctx.Metrics
	out := d.withStage(func(int) stage {
		var bufp *[]Row
		run := func(emit func(Row)) {
			if bufp == nil || len(*bufp) == 0 {
				return
			}
			buf := *bufp
			sel := pred(buf)
			for i, r := range buf {
				if sel.Get(i) {
					emit(r)
				}
			}
			m.VectorizedBatches.Add(1)
			m.VectorizedRows.Add(int64(len(buf)))
			*bufp = buf[:0]
		}
		return stage{
			fn: func(r Row, emit func(Row)) {
				if bufp == nil {
					bufp = getRowBuf()
				}
				*bufp = append(*bufp, r)
				if len(*bufp) == BatchSize {
					run(emit)
				}
			},
			flush: func(emit func(Row)) {
				run(emit)
				bufp = putRowBuf(bufp)
			},
		}
	})
	out.partitioner = d.partitioner
	return out
}

// MapVec applies a batched 1:1 transform: fn receives a BatchSize window and
// must return exactly one output row per input row, in order. Narrow, fused,
// lazy; drops the guarantee (use MapVecPreserving when key columns survive).
func (d *Dataset) MapVec(fn func(rows []Row) []Row) *Dataset {
	m := &d.ctx.Metrics
	return d.withStage(func(int) stage {
		var bufp *[]Row
		run := func(emit func(Row)) {
			if bufp == nil || len(*bufp) == 0 {
				return
			}
			buf := *bufp
			for _, r := range fn(buf) {
				emit(r)
			}
			m.VectorizedBatches.Add(1)
			m.VectorizedRows.Add(int64(len(buf)))
			*bufp = buf[:0]
		}
		return stage{
			fn: func(r Row, emit func(Row)) {
				if bufp == nil {
					bufp = getRowBuf()
				}
				*bufp = append(*bufp, r)
				if len(*bufp) == BatchSize {
					run(emit)
				}
			},
			flush: func(emit func(Row)) {
				run(emit)
				bufp = putRowBuf(bufp)
			},
		}
	})
}

// MapVecPreserving is MapVec keeping the partitioning guarantee; the caller
// asserts key columns survive in place.
func (d *Dataset) MapVecPreserving(fn func(rows []Row) []Row) *Dataset {
	out := d.MapVec(fn)
	out.partitioner = d.partitioner
	return out
}

// FlatMap expands every row to zero or more rows. Narrow, fused, lazy; drops
// the guarantee.
func (d *Dataset) FlatMap(fn func(Row) []Row) *Dataset {
	return d.withStage(func(int) stage {
		return stage{fn: func(r Row, emit func(Row)) {
			for _, o := range fn(r) {
				emit(o)
			}
		}}
	})
}

// FlatMapPreserving is FlatMap keeping the partitioning guarantee; the caller
// asserts key columns survive in place (e.g. unnesting a dictionary value bag
// while keeping the label column).
func (d *Dataset) FlatMapPreserving(fn func(Row) []Row) *Dataset {
	out := d.FlatMap(fn)
	out.partitioner = d.partitioner
	return out
}

// AddUniqueID appends a new column holding an ID unique across the dataset,
// without any shuffle: IDs combine the partition index and a per-partition
// sequence number, assigned by a fused stage whose counter is instantiated
// per partition per pass (so replays produce identical IDs). This implements
// the unique-ID insertion performed by the outer-unnest operator of the
// paper.
func (d *Dataset) AddUniqueID() *Dataset {
	out := d.withStage(func(part int) stage {
		base := int64(part) << 40
		var seq int64
		return stage{fn: func(r Row, emit func(Row)) {
			nr := make(Row, len(r)+1)
			copy(nr, r)
			nr[len(r)] = base | seq
			seq++
			emit(nr)
		}}
	})
	out.partitioner = d.partitioner
	return out
}

// Union concatenates two datasets partition-wise (no shuffle, guarantee
// dropped — Spark's union likewise drops the partitioner). Both sides are
// materialized first so their fused chains are not cross-multiplied.
func (d *Dataset) Union(o *Dataset) *Dataset {
	d.force()
	o.force()
	n := len(d.parts)
	if len(o.parts) > n {
		n = len(o.parts)
	}
	parts := make([][]Row, n)
	for i := 0; i < n; i++ {
		var p []Row
		if i < len(d.parts) {
			p = append(p, d.parts[i]...)
		}
		if i < len(o.parts) {
			p = append(p, o.parts[i]...)
		}
		parts[i] = p
	}
	return &Dataset{ctx: d.ctx, parts: parts, err: errors.Join(d.err, o.err)}
}

// CheckMemory materializes pending stages and enforces the per-partition
// memory cap, recording the peak. Operators that materially expand data in
// place (flattening a nested collection) call it to model worker memory
// pressure outside shuffle boundaries.
func (d *Dataset) CheckMemory(stage string) error {
	return d.ctx.timeStage(stage, func() error {
		if err := d.force(); err != nil {
			return err
		}
		return d.ctx.checkPartitions(stage, d.parts)
	})
}
