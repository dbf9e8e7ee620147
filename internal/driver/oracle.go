package driver

import (
	"fmt"
	"math"

	"miniamr/internal/membuf"
)

// Oracle is the cross-variant checksum oracle: it records every validated
// global checksum and rejects drift beyond a relative tolerance between
// consecutive validations. All variants of an application feed it the
// same bit-deterministic global sums, so histories compare with
// math.Float64bits equality across variants.
type Oracle struct {
	// Tolerance is the admissible relative drift between consecutive
	// checksums.
	Tolerance float64
	// History holds every accepted global checksum in order.
	History [][]float64

	prev []float64 // last validated sums, nil right after Reset
}

// Accept records a reduced global checksum and validates it against the
// previous one. The caller passes a fresh slice (the collective's
// result); the oracle retains it.
//
//amr:det
func (o *Oracle) Accept(global []float64) error {
	o.History = append(o.History, global)
	if o.prev != nil {
		for v := range global {
			ref := math.Abs(o.prev[v])
			if ref < 1e-12 {
				ref = 1e-12
			}
			if math.Abs(global[v]-o.prev[v]) > o.Tolerance*ref {
				return fmt.Errorf("driver: checksum validation failed: variable %d drifted from %v to %v (tolerance %v)",
					v, o.prev[v], global[v], o.Tolerance)
			}
		}
	}
	o.prev = global
	return nil
}

// Reset clears the drift baseline (the history stays). Applications call
// it when the discrete state legitimately changes between checksums —
// e.g. coarsening after a refinement epoch.
func (o *Oracle) Reset() { o.prev = nil }

// CombineSums folds per-block per-variable sums into deterministic local
// sums: blocks are combined in the order of perBlock, the application's
// canonical block order, so the result is bit-identical regardless of which
// worker produced each block's sums. The result is a pooled arena buffer;
// the caller owns it and must put it back (typically after the global
// reduction).
//
//amr:det
func CombineSums(a *membuf.Arena, vars int, perBlock [][]float64) []float64 {
	out := a.GetFloat64(vars)
	clear(out)
	for _, sums := range perBlock {
		for v := range sums {
			out[v] += sums[v]
		}
	}
	return out
}
