package plan

import (
	"fmt"

	"github.com/trance-go/trance/internal/promtext"
)

// VecNote records the vectorizer's verdict for one narrow operator. The
// executor's kernel compiler (internal/exec) is the authority: it annotates
// plans after optimization, so Explain always shows exactly what the engine
// will do. OK means the operator's expressions compile to vector kernels;
// otherwise Reason names the first construct that forced the row interpreter.
type VecNote struct {
	OK     bool
	Reason string
}

func (v *VecNote) describe() string {
	if v == nil {
		return ""
	}
	if v.OK {
		return " [vec]"
	}
	return " [no-vec: " + v.Reason + "]"
}

// VecStats counts vectorization outcomes over the narrow operators of a
// compiled plan (per compilation when returned by the annotator;
// RecordVecStats aggregates them process-wide for serving metrics).
type VecStats struct {
	// OpsVectorized counts Select/Extend/Project operators taking the
	// columnar batch path.
	OpsVectorized int64
	// OpsFallback counts narrow operators kept on the row interpreter, with
	// the reason rendered in Explain.
	OpsFallback int64
}

// Add accumulates o into s.
func (s *VecStats) Add(o VecStats) {
	s.OpsVectorized += o.OpsVectorized
	s.OpsFallback += o.OpsFallback
}

// Total returns the number of annotated operators.
func (s *VecStats) Total() int64 { return s.OpsVectorized + s.OpsFallback }

func (s *VecStats) String() string {
	return fmt.Sprintf("vectorized=%d fallback=%d", s.OpsVectorized, s.OpsFallback)
}

// vecCounters aggregate vectorization verdicts across every annotation call
// in the process (tranced /metrics).
var vecCounters = struct{ vectorized, fallback *promtext.Counter }{
	vectorized: promtext.Default.Counter("trance_vectorize_ops_vectorized_total", "Narrow operators compiled to columnar kernels."),
	fallback:   promtext.Default.Counter("trance_vectorize_ops_fallback_total", "Narrow operators kept on the row interpreter."),
}

// RecordVecStats folds one compilation's verdicts into the process-wide
// counters.
func RecordVecStats(st VecStats) {
	vecCounters.vectorized.Add(st.OpsVectorized)
	vecCounters.fallback.Add(st.OpsFallback)
}
