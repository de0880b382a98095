// Package skew implements the skew-resilient processing of paper Section 5:
// lightweight sampling to identify heavy keys, and the splitting of a
// distributed bag into the light/heavy components of a skew-triple.
//
// A key is heavy when at least Threshold of the sampled tuples in some
// partition carry it; with the paper's threshold of 2.5% there can be at most
// 40 distinct heavy keys per sampled partition, keeping the heavy-key set
// cheap to broadcast.
package skew

import (
	"github.com/trance-go/trance/internal/dataflow"
	"github.com/trance-go/trance/internal/value"
)

// Defaults from the paper's experiments.
const (
	DefaultThreshold  = 0.025
	DefaultSampleSize = 400
)

// Detector configures heavy-key detection.
type Detector struct {
	Threshold  float64
	SampleSize int
}

// NewDetector returns a detector with the paper's defaults.
func NewDetector() Detector {
	return Detector{Threshold: DefaultThreshold, SampleSize: DefaultSampleSize}
}

// HeavyKeys samples each partition of d and returns the set of composite
// keys (over cols) that exceed the per-partition frequency threshold.
func (det Detector) HeavyKeys(d *dataflow.Dataset, cols []int) map[string]bool {
	type partResult struct{ keys []string }
	results := make([]partResult, d.NumPartitions())
	d.SamplePartitions(det.SampleSize, func(p int, sample []dataflow.Row) {
		if len(sample) == 0 {
			return
		}
		// index maps a key to its slot in counts; only a new distinct key
		// allocates its string.
		index := map[string]int{}
		var counts []int
		var key []byte
		for _, r := range sample {
			key = value.AppendKeyCols(key[:0], r, cols)
			i, ok := index[string(key)]
			if !ok {
				i = len(counts)
				index[string(key)] = i
				counts = append(counts, 0)
			}
			counts[i]++
		}
		limit := int(det.Threshold * float64(len(sample)))
		if limit < 1 {
			limit = 1
		}
		var heavy []string
		for k, i := range index {
			if c := counts[i]; c >= limit && c > 1 {
				heavy = append(heavy, k)
			}
		}
		results[p] = partResult{keys: heavy}
	})
	out := map[string]bool{}
	for _, r := range results {
		for _, k := range r.keys {
			out[k] = true
		}
	}
	return out
}

// Split divides d into the light and heavy components of a skew-triple.
func Split(d *dataflow.Dataset, cols []int, heavy map[string]bool) (light, heavyDS *dataflow.Dataset) {
	if len(heavy) == 0 {
		return d, d.Context().Empty()
	}
	light = d.Filter(func(r dataflow.Row) bool { return !isHeavy(heavy, r, cols) })
	heavyDS = d.Filter(func(r dataflow.Row) bool { return isHeavy(heavy, r, cols) })
	return light, heavyDS
}

// isHeavy reports whether r's key over cols is in heavy. Filters run on
// several partition goroutines at once, so each call encodes into its own
// stack array rather than a buffer shared by the closure.
func isHeavy(heavy map[string]bool, r dataflow.Row, cols []int) bool {
	var scratch [64]byte
	return heavy[string(value.AppendKeyCols(scratch[:0], r, cols))]
}
