package main

import (
	"sync"
	"time"
)

// hostReference is the benchmark's own yardstick of how fast the host is
// right now: a 7-point stencil over private bricks on two threads, written
// here so that no change to the repository's kernels can move it.
type hostReference struct {
	src, dst [refThreads][]float64
}

const (
	refThreads = 2
	refEdge    = 14  // brick edge with its ghost layer
	refBricks  = 160 // per thread: 3.5 MB read + 3.5 MB written per sweep
	refSweeps  = 64
)

func newHostReference() *hostReference {
	h := &hostReference{}
	for t := range h.src {
		h.src[t] = make([]float64, refBricks*refEdge*refEdge*refEdge)
		h.dst[t] = make([]float64, len(h.src[t]))
		for i := range h.src[t] {
			// Ghost cells are never written, so the field relaxes to a
			// non-zero steady state instead of decaying into denormals.
			h.src[t][i] = 1 + float64(i%97)/97
			h.dst[t][i] = h.src[t][i]
		}
	}
	return h
}

func sweepBricks(src, dst []float64) {
	const e, e2, e3 = refEdge, refEdge * refEdge, refEdge * refEdge * refEdge
	for b := 0; b < refBricks; b++ {
		s, d := src[b*e3:(b+1)*e3], dst[b*e3:(b+1)*e3]
		for i := 1; i < e-1; i++ {
			for j := 1; j < e-1; j++ {
				row := i*e2 + j*e
				for k := 1; k < e-1; k++ {
					c := row + k
					d[c] = (s[c] + s[c-1] + s[c+1] + s[c-e] + s[c+e] + s[c-e2] + s[c+e2]) * (1.0 / 7)
				}
			}
		}
	}
}

// sample times a fixed amount of reference work: every thread sweeps its
// bricks refSweeps times, with a barrier at the end only.
func (h *hostReference) sample() time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for t := 0; t < refThreads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			for s := 0; s < refSweeps; s++ {
				sweepBricks(h.src[t], h.dst[t])
				h.src[t], h.dst[t] = h.dst[t], h.src[t]
			}
		}(t)
	}
	wg.Wait()
	return time.Since(start)
}
