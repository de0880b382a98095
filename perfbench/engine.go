package main

import (
	"time"

	"github.com/trance-go/trance/internal/dataflow"
)

// engineTotals accumulates the dataflow counters Result.Metrics reports
// for each operation.
type engineTotals struct {
	ops                                   int
	shuffleBytes, shuffleRecords, bcast   float64
	colBytes, boxedBytes, stages, skipped float64
	vecRows                               float64
	peakRows, peakBytes                   int64
	stageWall                             map[string]time.Duration
	stageSum                              time.Duration
}

// add folds one operation's snapshot in and returns its stage walls by
// declared kind.
func (e *engineTotals) add(s dataflow.Snapshot) map[string]time.Duration {
	e.ops++
	e.shuffleBytes += float64(s.ShuffleBytes)
	e.shuffleRecords += float64(s.ShuffleRecords)
	e.bcast += float64(s.BroadcastBytes)
	e.colBytes += float64(s.Exchange.ColumnarBytes)
	e.boxedBytes += float64(s.Exchange.BoxedBytes)
	e.stages += float64(s.Stages)
	e.skipped += float64(s.SkippedShuffles)
	e.vecRows += float64(s.VectorizedRows)
	e.peakRows = max(e.peakRows, s.PeakPartitionRows)
	e.peakBytes = max(e.peakBytes, s.PeakPartition)
	if e.stageWall == nil {
		e.stageWall = map[string]time.Duration{}
	}
	walls := map[string]time.Duration{}
	for _, st := range s.StageWall {
		k := stageKind(st.Stage)
		walls[k] += st.Wall
		e.stageWall[k] += st.Wall
		e.stageSum += st.Wall
	}
	return walls
}

// report sets the dataflow and stage metrics, per operation.
func (e *engineTotals) report(m metricSet) {
	n := float64(e.ops)
	m.set("dataflow.shuffle_mb_per_op", ratio(e.shuffleBytes/1e6, n))
	m.set("dataflow.shuffle_records_per_op", ratio(e.shuffleRecords, n))
	m.set("dataflow.broadcast_mb_per_op", ratio(e.bcast/1e6, n))
	m.set("dataflow.exchange_columnar_mb_per_op", ratio(e.colBytes/1e6, n))
	m.set("dataflow.exchange_boxed_mb_per_op", ratio(e.boxedBytes/1e6, n))
	m.set("dataflow.stages_per_op", ratio(e.stages, n))
	m.set("dataflow.skipped_shuffle_ratio", ratio(e.skipped, e.skipped+e.stages))
	m.set("dataflow.vectorized_rows_per_op", ratio(e.vecRows, n))
	m.set("dataflow.peak_partition_rows", float64(e.peakRows))
	m.set("dataflow.peak_partition_mb", float64(e.peakBytes)/1e6)
	m.set("dataflow.ms_per_op", ratio(ms(e.stageSum), n))
	for k, d := range e.stageWall {
		m.set("stage."+k+".ms_per_op", ratio(ms(d), n))
	}
}

// merge folds another set of totals in.
func (e *engineTotals) merge(b *engineTotals) {
	e.ops += b.ops
	e.shuffleBytes += b.shuffleBytes
	e.shuffleRecords += b.shuffleRecords
	e.bcast += b.bcast
	e.colBytes += b.colBytes
	e.boxedBytes += b.boxedBytes
	e.stages += b.stages
	e.skipped += b.skipped
	e.vecRows += b.vecRows
	e.peakRows = max(e.peakRows, b.peakRows)
	e.peakBytes = max(e.peakBytes, b.peakBytes)
	e.stageSum += b.stageSum
	if e.stageWall == nil {
		e.stageWall = map[string]time.Duration{}
	}
	for k, d := range b.stageWall {
		e.stageWall[k] += d
	}
}
