package main

import (
	"errors"
	"math"
	"strings"
	"testing"

	"miniamr/internal/harness"
)

var errTest = errors.New("rank 1 panicked")

func goodRun() harness.Metrics {
	return harness.Metrics{
		Checksums: [][]float64{{1.5, 2.5}, {1.25, 2.75}},
		Tasks:     10, Messages: 4, CommBytes: 64, Flops: 1000,
	}
}

func TestOracleAcceptsConsistentRuns(t *testing.T) {
	o := newOracle("w")
	for _, v := range []string{"forkjoin", "dataflow", "dataflow"} {
		if !o.check(v, false, "round 0", goodRun()) {
			t.Fatalf("%s rejected: %v", v, o.failures)
		}
	}
	// Another rank count sums in another order: the last bits may differ.
	m := goodRun()
	m.Checksums[1][0] = math.Nextafter(m.Checksums[1][0], 2)
	for _, v := range []string{"mpionly", serialKey} {
		if !o.check(v, false, "round 0", m) {
			t.Fatalf("%s rejected: %v", v, o.failures)
		}
	}
	// Another transport: same bits, its own traffic counters.
	tcp := goodRun()
	tcp.Messages = 9
	if !o.check("dataflow", true, "twin", tcp) {
		t.Fatalf("tcp twin rejected: %v", o.failures)
	}
	if o.attempted != 6 || o.failed != 0 {
		t.Fatalf("attempted %d failed %d", o.attempted, o.failed)
	}
}

func TestOracleRejects(t *testing.T) {
	flip := func(m *harness.Metrics) {
		m.Checksums[1][1] = math.Nextafter(m.Checksums[1][1], 0) // one bit
	}
	cases := []struct {
		name    string
		variant string
		corrupt func(*harness.Metrics)
		want    string
	}{
		{"one bit between rounds", "dataflow", flip, "checksum 1 variable 1"},
		{"one bit between fork-join and data-flow", "forkjoin", flip, "differs from dataflow: checksum 1 variable 1"},
		{"beyond tolerance across rank counts", "mpionly", func(m *harness.Metrics) { m.Checksums[0][0] *= 1 + 1e-9 }, "differs from dataflow: checksum 0 variable 0"},
		{"shorter history", "dataflow", func(m *harness.Metrics) { m.Checksums = m.Checksums[:1] }, "2 checksums against 1"},
		{"nothing validated", "dataflow", func(m *harness.Metrics) { m.Checksums = nil }, "no checksum"},
		{"leaked buffer", "dataflow", func(m *harness.Metrics) { m.Arena.Live = 1 }, "arena leak"},
		{"leaked lease", "dataflow", func(m *harness.Metrics) { m.Arena.LeasesLive = 2 }, "arena leak"},
		{"task count drifts", "dataflow", func(m *harness.Metrics) { m.Tasks++ }, "work counters"},
		{"traffic drifts", "dataflow", func(m *harness.Metrics) { m.CommBytes += 8 }, "work counters"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := newOracle("w")
			if !o.check("dataflow", false, "warm-up", goodRun()) {
				t.Fatal("reference run rejected")
			}
			m := goodRun()
			tc.corrupt(&m)
			if o.check(tc.variant, false, "round 3", m) {
				t.Fatal("corrupted run accepted")
			}
			if o.failed != 1 || len(o.failures) != 1 {
				t.Fatalf("failed %d, failures %v", o.failed, o.failures)
			}
			msg := o.failures[0]
			if !strings.Contains(msg, tc.want) || !strings.Contains(msg, "w "+tc.variant+" round 3") {
				t.Fatalf("failure message %q lacks %q or the run's name", msg, tc.want)
			}
		})
	}
}

// A failed check fails the command: the result is marked incorrect and
// the exit status is non-zero.
func TestFailedCheckFailsTheCommand(t *testing.T) {
	o := newOracle("w")
	o.check("dataflow", false, "warm-up", goodRun())
	bad := goodRun()
	bad.Checksums[0][0] += 1
	o.check("dataflow", false, "round 0", bad)
	o.errored("forkjoin", "round 0", errTest)
	tr := newTracer("t")
	r := &runner{w: &workloads[0], orc: o, tr: tr, span: tr.begin(0, "w")}
	res := r.finish(nil, metricSet{})
	if res.Correct || res.Attempted != 3 || res.Failed != 2 {
		t.Fatalf("result %+v", res)
	}
	if got := exitStatus([]result{{Correct: true}, res}); got == 0 {
		t.Fatal("exit status 0 with a failed check")
	}
	if got := exitStatus([]result{{Correct: true}}); got != 0 {
		t.Fatalf("exit status %d for a clean run", got)
	}
}
