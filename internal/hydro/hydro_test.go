package hydro

import (
	"math"
	"os"
	"testing"
	"time"

	"miniamr/internal/cluster"
	"miniamr/internal/harness"
	"miniamr/internal/mpi"
	"miniamr/internal/sanitize"
	"miniamr/internal/simnet"
	"miniamr/internal/trace"
)

// testConfig is a small but complete problem: a 24x16 grid in 4x4 tiles
// (so every rank owns several tiles and every tile pair class — remote,
// local, wrapped — occurs), four timesteps, a checksum every timestep.
func testConfig() Config {
	return Config{
		NX: 24, NY: 16,
		TilesX: 4, TilesY: 4,
		Timesteps:     4,
		ChecksumEvery: 2,
		Workers:       2,
	}
}

type variantFunc func(Config, *mpi.Comm, *trace.Recorder) (Result, error)

var variants = map[string]variantFunc{
	"mpionly":  RunMPIOnly,
	"forkjoin": RunForkJoin,
	"dataflow": RunDataFlow,
}

// runVariant executes a variant on a fresh world and returns per-rank
// results. With AMRSAN=1 in the environment every run is additionally
// executed under the runtime sanitizer and any finding fails the test.
func runVariant(t *testing.T, cfg Config, ranks int, run variantFunc, rec *trace.Recorder) []Result {
	t.Helper()
	w := mpi.NewWorld(cluster.MustNew(1, ranks, 1), simnet.None())
	var san *sanitize.Sanitizer
	if os.Getenv("AMRSAN") == "1" {
		san = sanitize.New(sanitize.Options{})
		san.Attach(w)
		cfg.Sanitizer = san
	}
	results := make([]Result, ranks)
	err := w.Run(func(c *mpi.Comm) {
		res, err := run(cfg, c, rec)
		if err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			panic(err) // unblock peers deterministically
		}
		results[c.Rank()] = res
	})
	if san != nil {
		for _, r := range san.Finish() {
			t.Errorf("sanitizer: %v", r)
		}
	}
	if err != nil && !t.Failed() {
		t.Fatal(err)
	}
	return results
}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if good.CFL != 0.4 || good.Gamma != 1.4 || good.ChecksumTolerance != 1e-6 {
		t.Errorf("defaults not applied: %+v", good)
	}
	bad := map[string]func(*Config){
		"zero-grid":     func(c *Config) { c.NX = 0 },
		"thin-tiling":   func(c *Config) { c.TilesX = 1 },
		"ragged-tiling": func(c *Config) { c.TilesX = 5 },
		"no-steps":      func(c *Config) { c.Timesteps = 0 },
		"wild-cfl":      func(c *Config) { c.CFL = 1.5 },
		"bad-gamma":     func(c *Config) { c.Gamma = 0.9 },
	}
	for name, mutate := range bad {
		cfg := testConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestVariantsRunAndValidate(t *testing.T) {
	for name, run := range variants {
		name, run := name, run
		t.Run(name, func(t *testing.T) {
			results := runVariant(t, testConfig(), 3, run, nil)
			if t.Failed() {
				return
			}
			if len(results[0].Checksums) != 4 { // 4 timesteps, every 2nd of 8 stages
				t.Fatalf("validated %d checksum stages, want 4", len(results[0].Checksums))
			}
			for _, r := range results {
				if r.Flops == 0 {
					t.Error("a rank executed no sweep flops")
				}
			}
			// The scheme is conservative on the periodic domain: every
			// conserved variable's global sum stays at its initial value
			// up to round-off.
			first := results[0].Checksums[0]
			for i, ck := range results[0].Checksums {
				for v := range ck {
					if diff := math.Abs(ck[v] - first[v]); diff > 1e-9*math.Abs(first[v]) {
						t.Errorf("stage %d: variable %d drifted %v from %v", i, v, diff, first[v])
					}
				}
			}
			// All ranks observed the same checksum sequence.
			for r := 1; r < len(results); r++ {
				for i := range results[0].Checksums {
					for v := range results[0].Checksums[i] {
						if results[r].Checksums[i][v] != results[0].Checksums[i][v] {
							t.Fatalf("rank %d checksum %d differs", r, i)
						}
					}
				}
			}
		})
	}
}

// checksumsOf flattens a result's checksum history.
func checksumsOf(results []Result) []float64 {
	var out []float64
	for _, ck := range results[0].Checksums {
		out = append(out, ck...)
	}
	return out
}

func TestCrossVariantBitIdenticalChecksums(t *testing.T) {
	// All three variants run the same per-tile arithmetic in the same
	// order, so with identical rank counts the checksums must match to
	// the bit.
	cfg := testConfig()
	ref := checksumsOf(runVariant(t, cfg, 3, RunMPIOnly, nil))
	if t.Failed() {
		return
	}
	if len(ref) == 0 {
		t.Fatal("no checksums validated")
	}
	for name, run := range variants {
		got := checksumsOf(runVariant(t, cfg, 3, run, nil))
		if t.Failed() {
			return
		}
		if len(got) != len(ref) {
			t.Fatalf("%s: %d checksum values, want %d", name, len(got), len(ref))
		}
		for i := range ref {
			if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("%s: checksum value %d = %v, want bit-identical %v", name, i, got[i], ref[i])
			}
		}
	}
}

// TestLoopDriverWorkerCountsAgree: MPI-only and fork-join are one driver, so
// on the same ranks the worker count changes who executes a region, never
// what is computed or sent — bit-identical checksums and the same message
// and byte counters on every rank, from the inline single worker up.
func TestLoopDriverWorkerCountsAgree(t *testing.T) {
	loopOn := func(workers int) variantFunc {
		return func(cfg Config, c *mpi.Comm, rec *trace.Recorder) (Result, error) {
			return runLoop(cfg, workers, c, rec)
		}
	}
	ref := runVariant(t, testConfig(), 3, loopOn(1), nil)
	if t.Failed() {
		return
	}
	for _, workers := range []int{2, 3} {
		got := runVariant(t, testConfig(), 3, loopOn(workers), nil)
		if t.Failed() {
			return
		}
		want, have := checksumsOf(ref), checksumsOf(got)
		if len(have) != len(want) {
			t.Fatalf("%d workers: %d checksum values, want %d", workers, len(have), len(want))
		}
		for i := range want {
			if math.Float64bits(have[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%d workers: checksum %d = %v, want bit-identical %v", workers, i, have[i], want[i])
			}
		}
		for r := range ref {
			if got[r].Comm != ref[r].Comm {
				t.Errorf("%d workers: rank %d sent %+v, one worker sent %+v", workers, r, got[r].Comm, ref[r].Comm)
			}
		}
	}
}

func TestDataFlowOptionVariantsAgree(t *testing.T) {
	base := testConfig()
	ref := checksumsOf(runVariant(t, base, 3, RunDataFlow, nil))
	if t.Failed() {
		return
	}
	mutants := map[string]func(*Config){
		"blocking-tampi":   func(c *Config) { c.BlockingTAMPI = true },
		"separate-buffers": func(c *Config) { c.SeparateBuffers = true },
		"single-worker":    func(c *Config) { c.Workers = 1 },
		"many-workers":     func(c *Config) { c.Workers = 4 },
		// A parked spawner with the fewest cores, which suspended
		// receives lend out.
		"blocking-tampi+single-worker": func(c *Config) { c.BlockingTAMPI = true; c.Workers = 1 },
	}
	for name, mutate := range mutants {
		cfg := testConfig()
		mutate(&cfg)
		got := checksumsOf(runVariant(t, cfg, 3, RunDataFlow, nil))
		if t.Failed() {
			return
		}
		if len(got) != len(ref) {
			t.Fatalf("%s: %d checksum values, want %d", name, len(got), len(ref))
		}
		for i := range ref {
			if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("%s: checksum %d = %v, want %v", name, i, got[i], ref[i])
			}
		}
	}
}

func TestRankCountsAgreeWithinTolerance(t *testing.T) {
	// Different rank counts change the reduction tree, so sums may
	// differ in the last bits but no further.
	cfg := testConfig()
	ref := checksumsOf(runVariant(t, cfg, 1, RunMPIOnly, nil))
	if t.Failed() {
		return
	}
	for _, ranks := range []int{2, 4, 5} {
		got := checksumsOf(runVariant(t, cfg, ranks, RunMPIOnly, nil))
		if t.Failed() {
			return
		}
		if len(got) != len(ref) {
			t.Fatalf("%d ranks: %d values, want %d", ranks, len(got), len(ref))
		}
		for i := range ref {
			if diff := math.Abs(got[i] - ref[i]); diff > 1e-9*math.Abs(ref[i]) {
				t.Errorf("%d ranks: checksum %d = %v, want %v", ranks, i, got[i], ref[i])
			}
		}
	}
}

// TestArenaLeakFree: after a full run of each variant every buffer taken
// from the world's arena must be back (tile storage, receive slabs,
// message leases, checksum slots, scratches).
func TestArenaLeakFree(t *testing.T) {
	for name, run := range variants {
		name, run := name, run
		t.Run(name, func(t *testing.T) {
			cfg := testConfig()
			w := mpi.NewWorld(cluster.MustNew(1, 3, 1), simnet.None())
			w.Arena().SetDebug(true) // any double Put panics at the fault
			err := w.Run(func(c *mpi.Comm) {
				if _, err := run(cfg, c, nil); err != nil {
					panic(err)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			st := w.Arena().Stats()
			if st.Live != 0 || st.LeasesLive != 0 {
				t.Fatalf("arena leak after %s run: %+v", name, st)
			}
			if st.Gets != st.Puts {
				t.Fatalf("unbalanced arena traffic after %s run: %+v", name, st)
			}
			if st.Gets == 0 {
				t.Fatalf("arena unused by %s run; the message path should pool", name)
			}
		})
	}
}

// TestHarnessJobIntegration proves the harness runs HYDRO purely through
// the driver registry — no application-specific code paths.
func TestHarnessJobIntegration(t *testing.T) {
	for _, v := range harness.Variants {
		v := v
		t.Run(string(v), func(t *testing.T) {
			m, err := harness.Run(harness.RunSpec{
				Nodes: 1, RanksPerNode: 3, CoresPerRank: 2,
				Net: simnet.None(), Job: Job(testConfig()), Variant: v,
			})
			if err != nil {
				t.Fatal(err)
			}
			if m.Ranks != 3 || m.Flops <= 0 || m.Total <= 0 {
				t.Errorf("metrics not populated: %+v", m)
			}
			if len(m.Checksums) != 4 {
				t.Errorf("validated %d checksum stages, want 4", len(m.Checksums))
			}
			if m.FinalBlocks != 16 {
				t.Errorf("FinalBlocks = %d, want the 16 tiles", m.FinalBlocks)
			}
			if v == harness.DataFlow && m.Tasks == 0 {
				t.Error("data-flow run spawned no tasks")
			}
		})
	}
}

// TestHydroChaosChecksumsMatchFaultFree extends the chaos suite to the
// second application: under the default seeded fault schedule every
// variant must finish with checksums bit-identical to its fault-free run.
func TestHydroChaosChecksumsMatchFaultFree(t *testing.T) {
	res := mpi.Resilience{RetryTimeout: 2 * time.Millisecond, MaxRetries: 20}
	spec := func(v harness.Variant, faults *simnet.Faults) harness.RunSpec {
		return harness.RunSpec{
			Nodes: 2, RanksPerNode: 2, CoresPerRank: 2,
			Net: simnet.None(), Job: Job(testConfig()), Variant: v,
			Chaos: faults, Resilience: res,
		}
	}
	for _, v := range harness.Variants {
		v := v
		t.Run(string(v), func(t *testing.T) {
			t.Parallel()
			base, err := harness.Run(spec(v, nil))
			if err != nil {
				t.Fatalf("fault-free run: %v", err)
			}
			faults := simnet.DefaultFaults(321)
			m, err := harness.Run(spec(v, &faults))
			if err != nil {
				t.Fatalf("chaos run: %v", err)
			}
			if m.Faults.Total() == 0 {
				t.Fatal("default schedule injected nothing; the run proved nothing")
			}
			if len(m.Checksums) != len(base.Checksums) {
				t.Fatalf("chaos run passed %d checksum stages, fault-free %d",
					len(m.Checksums), len(base.Checksums))
			}
			for i := range base.Checksums {
				for j := range base.Checksums[i] {
					if math.Float64bits(m.Checksums[i][j]) != math.Float64bits(base.Checksums[i][j]) {
						t.Fatalf("checksum[%d][%d] = %v under faults, want %v (bit-identical)",
							i, j, m.Checksums[i][j], base.Checksums[i][j])
					}
				}
			}
		})
	}
}

// TestSanitizedRunClean runs the data-flow variant under amrsan
// explicitly (the chaos/AMRSAN suites exercise it via the environment
// hook as well): a correct taskification must produce zero findings.
func TestSanitizedRunClean(t *testing.T) {
	w := mpi.NewWorld(cluster.MustNew(1, 3, 1), simnet.None())
	san := sanitize.New(sanitize.Options{})
	san.Attach(w)
	cfg := testConfig()
	cfg.Sanitizer = san
	err := w.Run(func(c *mpi.Comm) {
		if _, err := RunDataFlow(cfg, c, nil); err != nil {
			panic(err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range san.Finish() {
		t.Errorf("sanitizer finding: %v", r)
	}
}
