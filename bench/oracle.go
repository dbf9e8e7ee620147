package main

import (
	"fmt"
	"math"

	"miniamr/internal/harness"
)

// oracle checks the output of every run the benchmark makes (warm-up,
// timed, serial, twin and traced) and counts runs attempted and failed.
// The first run of a kind is the reference the later ones must match.
type oracle struct {
	workload  string
	attempted int
	failed    int
	failures  []string

	// sums holds one reference checksum history per variant (and one for
	// the serial baseline), whatever transport produced it.
	sums map[string][][]float64
	// counts holds the reference work counters per (variant, transport).
	counts map[string]workCounts
}

// workCounts are the counters that must repeat exactly between runs of
// one variant on one transport.
type workCounts struct {
	Tasks               int
	Messages, CommBytes int64
	Flops               int64
}

const serialKey = "serial"

// crossTolerance is the relative tolerance between checksum histories of
// different rank counts, where the order of the global sums differs.
const crossTolerance = 1e-12

func newOracle(workload string) *oracle {
	return &oracle{workload: workload, sums: map[string][][]float64{}, counts: map[string]workCounts{}}
}

func (o *oracle) fail(variant, run string, format string, args ...any) {
	o.failed++
	o.failures = append(o.failures,
		fmt.Sprintf("%s %s %s: %s", o.workload, variant, run, fmt.Sprintf(format, args...)))
}

// errored records a run that returned an error.
func (o *oracle) errored(variant, run string, err error) {
	o.attempted++
	o.fail(variant, run, "run failed: %v", err)
}

// sameRanks reports whether two variants run on the same rank count, in
// which case their checksums must agree bit for bit.
func sameRanks(a, b string) bool {
	hybrid := func(v string) bool { return v == "forkjoin" || v == "dataflow" }
	return a == b || (hybrid(a) && hybrid(b))
}

// firstDiff returns the first entry of two checksum histories that
// differs by more than tol (relative; 0 demands identical bits).
func firstDiff(a, b [][]float64, tol float64) (string, bool) {
	if len(a) != len(b) {
		return fmt.Sprintf("%d checksums against %d", len(a), len(b)), true
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return fmt.Sprintf("checksum %d has %d variables against %d", i, len(a[i]), len(b[i])), true
		}
		for v := range a[i] {
			x, y := a[i][v], b[i][v]
			same := math.Float64bits(x) == math.Float64bits(y)
			if !same && tol > 0 {
				same = math.Abs(x-y) <= tol*math.Max(math.Abs(x), math.Abs(y))
			}
			if !same {
				return fmt.Sprintf("checksum %d variable %d: %.17g against %.17g", i, v, x, y), true
			}
		}
	}
	return "", false
}

// check validates one completed run and reports whether it passed.
// variant is a variant key or serialKey; tcp tells the transport; run
// names the run for the failure message ("warm-up", "round 3", ...).
func (o *oracle) check(variant string, tcp bool, run string, m harness.Metrics) bool {
	o.attempted++
	if len(m.Checksums) == 0 {
		o.fail(variant, run, "no checksum was validated")
		return false
	}
	if m.Arena.Live != 0 || m.Arena.LeasesLive != 0 {
		o.fail(variant, run, "arena leak: %d buffers and %d leases live", m.Arena.Live, m.Arena.LeasesLive)
		return false
	}

	// Against earlier runs of the same variant: identical bits, on either
	// transport.
	if ref, ok := o.sums[variant]; ok {
		if diff, bad := firstDiff(ref, m.Checksums, 0); bad {
			o.fail(variant, run, "differs from the first %s run: %s", variant, diff)
			return false
		}
	} else {
		// First run of this variant: against the other variants.
		for other, ref := range o.sums {
			tol := crossTolerance
			if sameRanks(variant, other) {
				tol = 0
			}
			if diff, bad := firstDiff(ref, m.Checksums, tol); bad {
				o.fail(variant, run, "differs from %s: %s", other, diff)
				return false
			}
		}
		o.sums[variant] = m.Checksums
	}

	key := fmt.Sprintf("%s tcp=%v", variant, tcp)
	got := workCounts{Tasks: m.Tasks, Messages: m.Messages, CommBytes: m.CommBytes, Flops: m.Flops}
	if ref, ok := o.counts[key]; !ok {
		o.counts[key] = got
	} else if ref != got {
		o.fail(variant, run, "work counters %+v differ from the first run's %+v", got, ref)
		return false
	}
	return true
}
