package main

import (
	"math"
	"sort"
	"strings"
	"time"
)

// summary describes the samples behind one reported number, so that a
// reader can judge the spread the estimator was taken from.
type summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

// quantile interpolates linearly between the order statistics of a sorted
// sample (the "inclusive" method).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return summary{}
	}
	return summary{
		N: len(s), Min: s[0], Max: s[len(s)-1],
		Q1: quantile(s, 0.25), Median: quantile(s, 0.5), Q3: quantile(s, 0.75),
	}
}

func median(xs []float64) float64 { return summarize(xs).Median }

func minOf(xs []float64) float64 { return summarize(xs).Min }

// spread is the interquartile range as a share of the median, the
// run-to-run spread the acceptance rule compares with a metric's bound.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// pairedRatios divides sample by sample. The two series come from the
// same rounds, so slow drift of the host cancels inside each ratio; the
// median over rounds is then the ratio metric.
func pairedRatios(num, den []float64) []float64 {
	n := len(num)
	if len(den) < n {
		n = len(den)
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if den[i] > 0 {
			out = append(out, num[i]/den[i])
		}
	}
	return out
}

// metg interpolates the minimum effective task granularity (Task Bench,
// Slaughter et al.): the smallest task grain at which the runtime still
// reaches the target efficiency. grains ascend; eff[i] is the efficiency
// measured at grains[i]. Between the last grid point below the target and
// the first at or above it the crossing is interpolated linearly in
// log(grain). A curve that never reaches the target reports the largest
// grain measured (a lower bound), one that starts above it the smallest.
func metg(grains, eff []float64, target float64) float64 {
	for i := range grains {
		if eff[i] < target {
			continue
		}
		if i == 0 {
			return grains[0]
		}
		f := (target - eff[i-1]) / (eff[i] - eff[i-1])
		return math.Exp(math.Log(grains[i-1]) + f*(math.Log(grains[i])-math.Log(grains[i-1])))
	}
	return grains[len(grains)-1]
}

// layerTimes is busy time of a traced run folded into layers.
type layerTimes struct {
	kernel, pack, wait, other time.Duration
}

var (
	kernelLabels = []string{"stencil", "sweep", "cksum", "cfl-scan", "split", "consolidate"}
	packLabels   = []string{"pack", "unpack", "local-copy"}
	waitLabels   = []string{"MPI_", "recv-wait", "send-wait", "exchange-"}
)

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// foldLabels maps the applications' trace labels onto the benchmark's
// layers. The map lives here, outside the applications: labels it does
// not know (task bodies that only issue sends and receives, boundary
// fills) count as "other".
func foldLabels(byLabel map[string]time.Duration) layerTimes {
	var lt layerTimes
	for label, d := range byLabel {
		switch {
		case hasAnyPrefix(label, kernelLabels):
			lt.kernel += d
		case hasAnyPrefix(label, packLabels):
			lt.pack += d
		case hasAnyPrefix(label, waitLabels):
			lt.wait += d
		default:
			lt.other += d
		}
	}
	return lt
}
