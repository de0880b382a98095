package skew

import (
	"fmt"
	"strings"
	"testing"

	"github.com/trance-go/trance/internal/dataflow"
	"github.com/trance-go/trance/internal/value"
)

func skewedDataset(ctx *dataflow.Context, n int, heavyShare float64) *dataflow.Dataset {
	rows := make([]dataflow.Row, n)
	heavy := int(float64(n) * heavyShare)
	for i := range rows {
		if i < heavy {
			rows[i] = dataflow.Row{int64(7), int64(i)}
		} else {
			rows[i] = dataflow.Row{int64(1000 + i), int64(i)}
		}
	}
	return ctx.FromRows(rows)
}

func TestHeavyKeysDetectsSkew(t *testing.T) {
	ctx := dataflow.NewContext(4)
	d := skewedDataset(ctx, 4000, 0.5)
	det := NewDetector()
	hk := det.HeavyKeys(d, []int{0})
	if !hk[value.Key(int64(7))] {
		t.Fatal("heavy key 7 not detected")
	}
	// The bound from the threshold: at most 1/threshold heavy keys per
	// partition (paper Section 5).
	if len(hk) > 4*int(1/det.Threshold) {
		t.Fatalf("too many heavy keys: %d", len(hk))
	}
}

func TestHeavyKeysUniformDataHasFew(t *testing.T) {
	ctx := dataflow.NewContext(4)
	rows := make([]dataflow.Row, 4000)
	for i := range rows {
		rows[i] = dataflow.Row{int64(i), int64(i)}
	}
	det := NewDetector()
	hk := det.HeavyKeys(ctx.FromRows(rows), []int{0})
	if len(hk) != 0 {
		t.Fatalf("uniform keys misdetected as heavy: %d", len(hk))
	}
}

func TestSplitPartitionsRows(t *testing.T) {
	ctx := dataflow.NewContext(4)
	d := skewedDataset(ctx, 1000, 0.3)
	det := NewDetector()
	hk := det.HeavyKeys(d, []int{0})
	light, heavy := Split(d, []int{0}, hk)
	if light.Count()+heavy.Count() != 1000 {
		t.Fatalf("split lost rows: %d + %d", light.Count(), heavy.Count())
	}
	for _, r := range heavy.Collect() {
		if !hk[value.KeyCols(r, []int{0})] {
			t.Fatal("light row in heavy component")
		}
	}
	for _, r := range light.Collect() {
		if hk[value.KeyCols(r, []int{0})] {
			t.Fatal("heavy row in light component")
		}
	}
}

func TestSplitNoHeavyKeysIsIdentity(t *testing.T) {
	ctx := dataflow.NewContext(2)
	d := ctx.FromRows([]dataflow.Row{{int64(1)}, {int64(2)}})
	light, heavy := Split(d, []int{0}, nil)
	if light != d || heavy.Count() != 0 {
		t.Fatal("empty heavy-key set must return the input unchanged")
	}
}

// TestSplitConcurrentPartitions runs Split's filters on several partition
// goroutines at once over keys of mixed length, short and past the stack
// scratch, so a key buffer shared between them would misclassify rows (and
// trip the race detector).
func TestSplitConcurrentPartitions(t *testing.T) {
	ctx := dataflow.NewContext(8)
	ctx.Workers = 4
	rows := make([]dataflow.Row, 4000)
	for i := range rows {
		key := fmt.Sprintf("k%d", i%50)
		if i%3 == 0 {
			key = strings.Repeat("long-key-", 10) + key
		}
		rows[i] = dataflow.Row{key, int64(i)}
	}
	hk := map[string]bool{}
	for i := 0; i < 50; i += 7 {
		hk[value.Key(fmt.Sprintf("k%d", i))] = true
		hk[value.Key(strings.Repeat("long-key-", 10)+fmt.Sprintf("k%d", i))] = true
	}
	light, heavy := Split(ctx.FromRows(rows), []int{0}, hk)
	nl, nh := 0, 0
	for _, r := range light.Collect() {
		if hk[value.KeyCols(r, []int{0})] {
			t.Fatalf("heavy row %v in light component", r)
		}
		nl++
	}
	for _, r := range heavy.Collect() {
		if !hk[value.KeyCols(r, []int{0})] {
			t.Fatalf("light row %v in heavy component", r)
		}
		nh++
	}
	if nl+nh != len(rows) || nh == 0 || nl == 0 {
		t.Fatalf("split %d light + %d heavy of %d rows", nl, nh, len(rows))
	}
}
