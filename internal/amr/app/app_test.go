package app

import (
	"math"
	"os"
	"reflect"
	"testing"

	"miniamr/internal/amr/grid"
	"miniamr/internal/amr/object"
	"miniamr/internal/cluster"
	"miniamr/internal/mpi"
	"miniamr/internal/sanitize"
	"miniamr/internal/simnet"
	"miniamr/internal/trace"
)

// testConfig is a small but complete problem: a sphere moving through a
// 2x2x1 root mesh with two refinement levels, multiple variable groups,
// checksums and periodic refinement.
func testConfig() Config {
	return Config{
		RootBlocks:        [3]int{2, 2, 1},
		MaxLevel:          2,
		BlockSize:         grid.Size{X: 4, Y: 4, Z: 4},
		Vars:              4,
		CommVars:          2,
		Timesteps:         4,
		StagesPerTimestep: 4,
		ChecksumEvery:     4,
		RefineEvery:       2,
		Workers:           2,
		ValidateMesh:      true,
		Objects: []object.Object{{
			Type:   object.SpheroidSurface,
			Center: [3]float64{0.3, 0.35, 0.4},
			Size:   [3]float64{0.2, 0.2, 0.2},
			Move:   [3]float64{0.08, 0.04, 0.02},
		}},
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

func TestVariantsRunAndValidate(t *testing.T) {
	for name, run := range variants {
		name, run := name, run
		t.Run(name, func(t *testing.T) {
			results := runVariant(t, testConfig(), 3, run, nil)
			if t.Failed() {
				return
			}
			if len(results[0].Checksums) == 0 {
				t.Fatal("no checksums validated")
			}
			if results[0].RefineEpochs == 0 {
				t.Error("refinement never changed the mesh; the input should refine")
			}
			total := 0
			for _, r := range results {
				total += r.FinalBlocks
				if r.Flops == 0 {
					t.Error("a rank executed no stencil flops")
				}
			}
			if total < 4 {
				t.Errorf("final total blocks = %d", total)
			}
			// All ranks observed the same checksum sequence.
			for r := 1; r < len(results); r++ {
				if len(results[r].Checksums) != len(results[0].Checksums) {
					t.Fatalf("rank %d saw %d checksums, rank 0 saw %d",
						r, len(results[r].Checksums), len(results[0].Checksums))
				}
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
	// The paper's three variants compute the same numerics; with identical
	// rank counts the reproduction demands bit-identical checksums.
	cfg := testConfig()
	ref := checksumsOf(runVariant(t, cfg, 3, RunMPIOnly, nil))
	if t.Failed() {
		return
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

func TestDataFlowOptionVariantsAgree(t *testing.T) {
	base := testConfig()
	ref := checksumsOf(runVariant(t, base, 3, RunDataFlow, nil))
	if t.Failed() {
		return
	}
	mutants := map[string]func(*Config){
		"send-faces":           func(c *Config) { c.SendFaces = true },
		"send-faces-capped":    func(c *Config) { c.SendFaces = true; c.MaxCommTasks = 2 },
		"separate-buffers":     func(c *Config) { c.SeparateBuffers = true },
		"all-comm-options":     func(c *Config) { c.SendFaces = true; c.MaxCommTasks = 4; c.SeparateBuffers = true },
		"delayed-checksum":     func(c *Config) { c.DelayedChecksum = true },
		"no-immediate-succ":    func(c *Config) { c.DisableImmediateSuccessor = true },
		"single-worker":        func(c *Config) { c.Workers = 1 },
		"many-workers":         func(c *Config) { c.Workers = 4 },
		"one-group-per-var":    func(c *Config) { c.CommVars = 1 },
		"single-group":         func(c *Config) { c.CommVars = 0 },
		"tight-exchange-limit": func(c *Config) { c.MaxBlocksPerRank = 64 },
		"blocking-tampi":       func(c *Config) { c.BlockingTAMPI = true },
		// A parked spawner with the fewest cores: one worker that
		// suspended receives lend out, and checksum stages in flight
		// while the next is spawned.
		"blocking-tampi+single-worker":   func(c *Config) { c.BlockingTAMPI = true; c.Workers = 1 },
		"delayed-checksum+single-worker": func(c *Config) { c.DelayedChecksum = true; c.Workers = 1 },
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

func TestForkJoinScheduleVariantsAgree(t *testing.T) {
	base := testConfig()
	ref := checksumsOf(runVariant(t, base, 3, RunForkJoin, nil))
	if t.Failed() {
		return
	}
	cfg := testConfig()
	cfg.ForkJoinSchedule = "dynamic"
	got := checksumsOf(runVariant(t, cfg, 3, RunForkJoin, nil))
	if t.Failed() {
		return
	}
	if len(got) != len(ref) {
		t.Fatalf("dynamic schedule: %d values, want %d", len(got), len(ref))
	}
	for i := range ref {
		if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
			t.Fatalf("dynamic schedule checksum %d differs", i)
		}
	}
	bad := testConfig()
	bad.ForkJoinSchedule = "guided"
	if err := bad.Validate(); err == nil {
		t.Error("unknown schedule accepted")
	}
}

// loopOn is the loop driver at a fixed worker count, as a variant.
func loopOn(workers int) variantFunc {
	return func(cfg Config, c *mpi.Comm, rec *trace.Recorder) (Result, error) {
		return runLoop(cfg, workers, c, rec)
	}
}

// TestLoopDriverWorkerCountsAgree: MPI-only and fork-join are one driver, so
// on the same ranks the worker count changes who executes a region, never
// what is computed or sent — bit-identical checksums and the same message
// and byte counters on every rank, from the inline single worker up.
func TestLoopDriverWorkerCountsAgree(t *testing.T) {
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

// TestLoopTraceComparableAcrossWorkers: a traced loop run records the same
// spans at every worker count — one per transfer, domain-boundary faces
// under local-copy like the other ghost fills — so the MPI-only and the
// fork-join traces of one problem compare span for span.
func TestLoopTraceComparableAcrossWorkers(t *testing.T) {
	spans := func(workers int) map[string]int {
		rec := trace.NewRecorder()
		runVariant(t, testConfig(), 2, loopOn(workers), rec)
		byLabel := map[string]int{}
		for _, e := range rec.Events() {
			byLabel[e.Label]++
		}
		return byLabel
	}
	one, two := spans(1), spans(2)
	if t.Failed() {
		return
	}
	if !reflect.DeepEqual(one, two) {
		t.Errorf("span counts differ:\n 1 worker:  %v\n 2 workers: %v", one, two)
	}
	for _, want := range []string{"pack", "unpack", "local-copy", "stencil", "cksum-local", "split", "MPI_Waitany"} {
		if one[want] == 0 {
			t.Errorf("trace missing %q spans (got %v)", want, one)
		}
	}
}

func TestRankCountsAgreeWithinTolerance(t *testing.T) {
	// Different rank counts change reduction trees and partitions, so
	// sums may differ in the last bits but no further.
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
			t.Fatalf("ranks=%d: %d checksum values, want %d", ranks, len(got), len(ref))
		}
		for i := range ref {
			if rel := math.Abs(got[i]-ref[i]) / math.Max(math.Abs(ref[i]), 1e-12); rel > 1e-9 {
				t.Fatalf("ranks=%d: checksum %d relative error %g", ranks, i, rel)
			}
		}
	}
}

func TestRunWithNetworkModel(t *testing.T) {
	cfg := testConfig()
	cfg.Timesteps = 2
	w := mpi.NewWorld(cluster.MustNew(2, 2, 1), simnet.Default())
	err := w.Run(func(c *mpi.Comm) {
		if _, err := RunDataFlow(cfg, c, nil); err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			panic(err)
		}
	})
	if err != nil && !t.Failed() {
		t.Fatal(err)
	}
}

func TestTraceRecordsAllPhases(t *testing.T) {
	rec := trace.NewRecorder()
	runVariant(t, testConfig(), 2, RunDataFlow, rec)
	if t.Failed() {
		return
	}
	byLabel := map[string]bool{}
	for _, e := range rec.Events() {
		byLabel[e.Label] = true
	}
	for _, want := range []string{"stencil", "pack", "unpack", "send-wait", "recv-wait", "local-copy", "cksum-local", "split"} {
		if !byLabel[want] {
			t.Errorf("trace missing %q events (got %v)", want, byLabel)
		}
	}
	st := trace.ComputeStats(rec.Events())
	if st.OverlapTime <= 0 {
		t.Error("data-flow run shows no computation/communication overlap")
	}
}

func TestDataFlowCountsTasks(t *testing.T) {
	results := runVariant(t, testConfig(), 2, RunDataFlow, nil)
	if t.Failed() {
		return
	}
	for r, res := range results {
		if res.TaskCount == 0 {
			t.Errorf("rank %d spawned no tasks", r)
		}
	}
	mres := runVariant(t, testConfig(), 2, RunMPIOnly, nil)
	if !t.Failed() && mres[0].TaskCount != 0 {
		t.Error("MPI-only should not report tasks")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.RootBlocks[0] = 0 },
		func(c *Config) { c.BlockSize.X = 3 },
		func(c *Config) { c.Vars = 0 },
		func(c *Config) { c.CommVars = 99 },
		func(c *Config) { c.Timesteps = 0 },
		func(c *Config) { c.MaxLevel = -1 },
		func(c *Config) { c.ChecksumTolerance = -1 },
		func(c *Config) { c.MaxCommTasks = -1 },
		func(c *Config) { c.Objects = []object.Object{{Type: object.Type(99)}} },
	}
	for i, mutate := range bad {
		cfg := testConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	cfg := testConfig()
	if err := cfg.Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
	if got := len(cfg.Groups()); got != 2 {
		t.Errorf("groups = %d, want 2", got)
	}
	cfg2 := testConfig()
	cfg2.Vars = 5
	cfg2.CommVars = 2
	if err := cfg2.Validate(); err != nil {
		t.Fatal(err)
	}
	gs := cfg2.Groups()
	if len(gs) != 3 || gs[2] != [2]int{4, 5} {
		t.Errorf("ragged groups = %v", gs)
	}
}

func TestNoRefineTime(t *testing.T) {
	r := Result{TotalTime: 10, RefineTime: 3}
	if r.NoRefineTime() != 7 {
		t.Error("NoRefineTime arithmetic")
	}
}

func TestStencil27CrossVariantIdentical(t *testing.T) {
	// The 27-point stencil (with locally synthesised edge/corner ghosts)
	// must also be bit-identical across the three variants.
	cfg := testConfig()
	cfg.Stencil = 27
	cfg.ChecksumTolerance = 0.2 // corner extrapolation conserves less tightly
	ref := checksumsOf(runVariant(t, cfg, 3, RunMPIOnly, nil))
	if t.Failed() {
		return
	}
	if len(ref) == 0 {
		t.Fatal("no checksums")
	}
	for name, run := range variants {
		got := checksumsOf(runVariant(t, cfg, 3, run, nil))
		if t.Failed() {
			return
		}
		if len(got) != len(ref) {
			t.Fatalf("%s: %d values, want %d", name, len(got), len(ref))
		}
		for i := range ref {
			if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
				t.Fatalf("%s: checksum %d = %v, want %v", name, i, got[i], ref[i])
			}
		}
	}
}

func TestPartitionerAndNoLoadBalanceAgreeWithinTolerance(t *testing.T) {
	// Different block placements change per-rank summation grouping, so
	// checksums agree to rounding rather than bit-for-bit.
	base := testConfig()
	ref := checksumsOf(runVariant(t, base, 3, RunDataFlow, nil))
	if t.Failed() {
		return
	}
	for name, mutate := range map[string]func(*Config){
		"sfc-partitioner": func(c *Config) { c.Partitioner = "sfc" },
		"no-load-balance": func(c *Config) { c.DisableLoadBalance = true },
	} {
		cfg := testConfig()
		mutate(&cfg)
		got := checksumsOf(runVariant(t, cfg, 3, RunDataFlow, nil))
		if t.Failed() {
			return
		}
		if len(got) != len(ref) {
			t.Fatalf("%s: %d values, want %d", name, len(got), len(ref))
		}
		for i := range ref {
			if rel := math.Abs(got[i]-ref[i]) / math.Max(math.Abs(ref[i]), 1e-12); rel > 1e-9 {
				t.Fatalf("%s: checksum %d relative error %g", name, i, rel)
			}
		}
	}
}

func TestPartitionerValidation(t *testing.T) {
	cfg := testConfig()
	cfg.Partitioner = "zoltan"
	if err := cfg.Validate(); err == nil {
		t.Error("unknown partitioner accepted")
	}
	cfg = testConfig()
	if err := cfg.Validate(); err != nil || cfg.Partitioner != "rcb" {
		t.Errorf("default partitioner = %q, err %v", cfg.Partitioner, err)
	}
}

func TestStencilValidation(t *testing.T) {
	cfg := testConfig()
	cfg.Stencil = 9
	if err := cfg.Validate(); err == nil {
		t.Error("Stencil=9 accepted")
	}
	cfg = testConfig()
	if err := cfg.Validate(); err != nil || cfg.Stencil != 7 {
		t.Errorf("default stencil = %d, err %v", cfg.Stencil, err)
	}
}

func TestStationaryObjectNoRefinement(t *testing.T) {
	// An object outside the domain never marks blocks: the mesh stays
	// uniform and refinement epochs report no change.
	cfg := testConfig()
	cfg.Objects = []object.Object{{
		Type:   object.SpheroidSurface,
		Center: [3]float64{5, 5, 5},
		Size:   [3]float64{0.1, 0.1, 0.1},
	}}
	results := runVariant(t, cfg, 2, RunMPIOnly, nil)
	if t.Failed() {
		return
	}
	if results[0].RefineEpochs != 0 {
		t.Errorf("refine epochs = %d, want 0", results[0].RefineEpochs)
	}
	if results[0].FinalBlocks+results[1].FinalBlocks != 4 {
		t.Errorf("block count changed without refinement")
	}
}
