package harness

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"miniamr/internal/hydro"
	"miniamr/internal/simnet"
)

// TestMain lets the multi-process suite re-execute this test binary as a
// wire child: the parent spawns os.Executable(), so the child role must
// take over before the test framework does anything.
func TestMain(m *testing.M) {
	MaybeRunWireChild() // exits inside when this process is a child
	os.Exit(m.Run())
}

// multiProcTimeout is generous against race-detector and loaded-host
// slowdowns; a healthy run finishes in well under a second.
const multiProcTimeout = 90 * time.Second

// checksumBits renders a checksum history as exact float bits, the form
// the cross-process comparison diffs.
func checksumBits(sums [][]float64) string {
	var b strings.Builder
	for i, row := range sums {
		fmt.Fprintf(&b, "stage %d:", i)
		for _, s := range row {
			fmt.Fprintf(&b, " %016x", math.Float64bits(s))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// oracleApps is the application matrix of the cross-process oracle:
// the same specs the in-process oracles use, minus instruments.
func oracleApps() []struct {
	name string
	spec func(v Variant) RunSpec
} {
	return []struct {
		name string
		spec func(v Variant) RunSpec
	}{
		{"miniamr", func(v Variant) RunSpec { return chaosSpec(v, nil) }},
		{"hydro", func(v Variant) RunSpec {
			cfg := hydro.Config{
				NX: 32, NY: 32, TilesX: 4, TilesY: 4,
				Timesteps: 4, ChecksumEvery: 2,
			}
			return RunSpec{
				Nodes: 2, RanksPerNode: 2, CoresPerRank: 2,
				Net: simnet.None(), Job: hydro.Job(cfg), Variant: v,
			}
		}},
	}
}

// TestCrossProcessOracle is the end-to-end regression of the wire
// transport: every application x variant pair, split over 2 OS processes
// connected by real TCP, must produce bit-identical checksums — and
// identical work and traffic totals — to the same job in one process.
func TestCrossProcessOracle(t *testing.T) {
	for _, a := range oracleApps() {
		for _, v := range Variants {
			a, v := a, v
			name := a.name + "/" + string(v)
			t.Run(name, func(t *testing.T) {
				if testing.Short() && !(a.name == "miniamr" && v == MPIOnly) {
					t.Skip("short mode runs one cross-process pair")
				}
				t.Parallel()
				ref, err := Run(a.spec(v))
				if err != nil {
					t.Fatalf("in-process run: %v", err)
				}
				spec := a.spec(v)
				spec.Procs = 2
				spec.ProcTimeout = multiProcTimeout
				got, err := Run(spec)
				if err != nil {
					t.Fatalf("2-process run: %v", err)
				}
				if len(got.Checksums) == 0 {
					t.Fatal("2-process run produced no checksums; the comparison proves nothing")
				}
				if want, have := checksumBits(ref.Checksums), checksumBits(got.Checksums); want != have {
					t.Errorf("checksums diverge across the process split:\n--- in-process\n%s--- 2-process\n%s", want, have)
				}
				if ref.FinalBlocks != got.FinalBlocks {
					t.Errorf("final blocks: in-process %d, 2-process %d", ref.FinalBlocks, got.FinalBlocks)
				}
				if ref.Flops != got.Flops {
					t.Errorf("flops: in-process %d, 2-process %d", ref.Flops, got.Flops)
				}
				if ref.Messages != got.Messages || ref.CommBytes != got.CommBytes {
					t.Errorf("traffic: in-process %d msgs / %d bytes, 2-process %d msgs / %d bytes",
						ref.Messages, ref.CommBytes, got.Messages, got.CommBytes)
				}
			})
		}
	}
}

// TestCrossProcessChaosOracle extends the oracle to the reliable path:
// under the default seeded fault schedule a 2-process run must recover
// to the same checksums, and — because the injector is a pure function
// of (seed, src, dst, seq) — the union of the children's fault logs must
// be byte-identical to the single-process schedule.
func TestCrossProcessChaosOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos oracle skipped in short mode")
	}
	faults := simnet.DefaultFaults(7)
	ref, err := Run(chaosSpec(MPIOnly, &faults))
	if err != nil {
		t.Fatalf("in-process chaos run: %v", err)
	}
	faults2 := simnet.DefaultFaults(7)
	spec := chaosSpec(MPIOnly, &faults2)
	spec.Procs = 2
	spec.ProcTimeout = multiProcTimeout
	got, err := Run(spec)
	if err != nil {
		t.Fatalf("2-process chaos run: %v", err)
	}
	if got.Faults.Total() == 0 {
		t.Fatal("2-process run injected nothing; the run proved nothing")
	}
	if want, have := checksumBits(ref.Checksums), checksumBits(got.Checksums); want != have {
		t.Errorf("chaos checksums diverge across the process split:\n--- in-process\n%s--- 2-process\n%s", want, have)
	}
	if want, have := simnet.LogString(ref.FaultLog), simnet.LogString(got.FaultLog); want != have {
		t.Errorf("fault schedules diverge across the process split:\n--- in-process\n%s--- 2-process\n%s", want, have)
	}
}

// TestMultiProcRejectsInstruments locks in the contract that in-process
// instruments fail fast instead of silently dropping data.
func TestMultiProcRejectsInstruments(t *testing.T) {
	spec := chaosSpec(MPIOnly, nil)
	spec.Procs = 2
	spec.Sanitize = true
	if _, err := Run(spec); err == nil {
		t.Error("sanitized multi-process run accepted; want an error")
	}
	spec.Sanitize = false
	spec.CPUProfile = filepath.Join(t.TempDir(), "cpu.prof")
	if _, err := Run(spec); err == nil || !strings.Contains(err.Error(), "CPU profiling is in-process only") {
		t.Errorf("profiled multi-process run: error %v, want the in-process-only rejection", err)
	}
	if _, err := os.Stat(spec.CPUProfile); err == nil {
		t.Error("rejected run left a profile file behind")
	}
}
