package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestSummarize(t *testing.T) {
	s := summarize([]float64{5, 1, 4, 2, 3})
	want := summary{N: 5, Min: 1, Q1: 2, Median: 3, Q3: 4, Max: 5}
	if s != want {
		t.Fatalf("summarize = %+v, want %+v", s, want)
	}
	if got := summarize([]float64{1, 2, 3, 4}); !near(got.Median, 2.5) || !near(got.Q1, 1.75) {
		t.Fatalf("even sample: %+v", got)
	}
	if got := s.spread(); !near(got, 2.0/3) {
		t.Fatalf("spread = %v", got)
	}
	if (summarize(nil) != summary{}) {
		t.Fatal("empty sample must summarise to zero")
	}
}

func TestPairedRatiosCancelDrift(t *testing.T) {
	// The host slows down by half from round to round; inside a round
	// both variants see the same host, so every ratio is 2.
	a := []float64{2, 3, 4.5}
	b := []float64{1, 1.5, 2.25}
	for _, r := range pairedRatios(a, b) {
		if !near(r, 2) {
			t.Fatalf("ratio %v, want 2", r)
		}
	}
	if got := pairedRatios([]float64{1, 2}, []float64{0, 4}); len(got) != 1 || !near(got[0], 0.5) {
		t.Fatalf("zero denominator must be skipped, got %v", got)
	}
}

func TestMETG(t *testing.T) {
	grains := []float64{1, 2, 4, 8, 16}
	// Crosses 50 % halfway (in log grain) between 2 and 4 us.
	if got := metg(grains, []float64{0.1, 0.3, 0.7, 0.9, 0.95}, 0.5); !near(got, math.Sqrt(8)) {
		t.Fatalf("metg = %v, want %v", got, math.Sqrt(8))
	}
	if got := metg(grains, []float64{0.6, 0.7, 0.8, 0.9, 0.95}, 0.5); got != 1 {
		t.Fatalf("always efficient: metg = %v, want the smallest grain", got)
	}
	if got := metg(grains, []float64{0.1, 0.1, 0.2, 0.3, 0.4}, 0.5); got != 16 {
		t.Fatalf("never efficient: metg = %v, want the largest grain", got)
	}
	if got := metg(grains, []float64{0.1, 0.5, 0.7, 0.9, 0.95}, 0.5); !near(got, 2) {
		t.Fatalf("exactly on a grid point: metg = %v, want 2", got)
	}
}

func TestFoldLabels(t *testing.T) {
	ms := time.Millisecond
	lt := foldLabels(map[string]time.Duration{
		"stencil": 10 * ms, "sweep": 1 * ms, "cksum-local": 2 * ms, "cfl-scan": 1 * ms,
		"split": 1 * ms, "consolidate": 1 * ms,
		"pack": 3 * ms, "unpack": 4 * ms, "local-copy": 1 * ms,
		"MPI_Waitany": 5 * ms, "recv-wait": 1 * ms, "send-wait": 1 * ms, "exchange-pack": 2 * ms,
		"send": 7 * ms, "recv": 1 * ms, "boundary": 1 * ms,
	})
	want := layerTimes{kernel: 16 * ms, pack: 8 * ms, wait: 9 * ms, other: 9 * ms}
	if lt != want {
		t.Fatalf("foldLabels = %+v, want %+v", lt, want)
	}
}

func TestVerdict(t *testing.T) {
	def := metricDef{Name: "dataflow_wall_norm", Unit: "ref", Better: "lower", Bound: 0.25}
	sampled := func(v, iqr float64) metric {
		return metric{Value: v, Unit: "ref", Estimator: "median", Samples: &summary{N: 30, Min: v * 0.8, Q1: v * (1 - iqr/2), Median: v, Q3: v * (1 + iqr/2), Max: v * 2}}
	}
	if got, _ := verdict(def, sampled(10, 0.1), sampled(11, 0.1)); got != "ok" {
		t.Fatalf("10 %% slower within a 25 %% bound: %s", got)
	}
	if got, change := verdict(def, sampled(10, 0.1), sampled(13, 0.1)); got != "worse" || !near(change, 0.3) {
		t.Fatalf("30 %% slower: %s %v", got, change)
	}
	if got, _ := verdict(def, sampled(10, 0.1), sampled(5, 0.1)); got != "ok" {
		t.Fatalf("faster must be ok: %s", got)
	}
	if got, _ := verdict(def, sampled(10, 0.1), sampled(13, 0.4)); got != "unresolved" {
		t.Fatalf("rounds spread wider than the bound: %s", got)
	}
	ratio := metricDef{Name: "dataflow_vs_mpionly", Unit: "x", Better: "higher", Bound: 0.15}
	if got, _ := verdict(ratio, metric{Value: 1.3}, metric{Value: 1.05}); got != "worse" {
		t.Fatalf("a ratio that fell by 19 %%: %s", got)
	}
	if got, _ := verdict(ratio, metric{Value: 1.3}, metric{Value: 1.2}); got != "ok" {
		t.Fatalf("a ratio that fell by 8 %%: %s", got)
	}
}
