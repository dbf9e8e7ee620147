// Package harness runs the paper's experiments: it builds virtual
// clusters, executes the application variants on them, aggregates per-rank
// results into the metrics the paper reports (total / refinement /
// non-refinement time, GFLOPS throughput, parallel efficiency), and prints
// the tables and figure series of the evaluation section.
//
// The scales are configurable: the defaults target a laptop-class host
// (small virtual nodes, seconds per configuration), while flags on
// cmd/experiments let larger machines run closer to the paper's sizes.
package harness

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"miniamr/internal/amr/app"
	"miniamr/internal/cluster"
	"miniamr/internal/driver"
	"miniamr/internal/membuf"
	"miniamr/internal/mpi"
	"miniamr/internal/sanitize"
	"miniamr/internal/simnet"
	"miniamr/internal/trace"
)

// Variant selects a parallelisation strategy; the type and the registry
// of (application, variant) pairs live in the driver skeleton.
type Variant = driver.Variant

// The three variants the paper evaluates.
const (
	MPIOnly  = driver.MPIOnly  // reference MPI-only, one rank per core
	ForkJoin = driver.ForkJoin // hybrid MPI+OpenMP fork-join
	DataFlow = driver.DataFlow // hybrid TAMPI+OmpSs-2 data-flow (the paper's)
)

// Variants lists all variants in presentation order.
var Variants = driver.Variants

// RunSpec describes one measured execution.
type RunSpec struct {
	// Topology of the virtual cluster.
	Nodes        int
	RanksPerNode int
	CoresPerRank int
	// Net is the interconnect model; the zero model charges nothing.
	Net simnet.Model
	// Cfg is the miniAMR problem, used when Job is nil. Cfg.Workers is
	// overridden with CoresPerRank.
	Cfg app.Config
	// Job, when non-nil, selects the application to run (any registered
	// driver.Job); Cfg is ignored. When nil the spec runs miniAMR on Cfg.
	Job driver.Job
	// Variant selects the strategy. It must be registered for the
	// application; unknown variant names are rejected before the cluster
	// is built.
	Variant Variant
	// Recorder, when non-nil, captures an execution trace.
	Recorder *trace.Recorder
	// Sanitize attaches the amrsan runtime sanitizer to the run; findings
	// land in Metrics.Sanitizer. Setting the AMRSAN=1 environment variable
	// forces it on for every run (the test suite's opt-in hook).
	Sanitize bool
	// Chaos, when non-nil and enabled, injects the seeded fault schedule
	// into the transport and switches the MPI layer to its reliable
	// (retransmit/ack) path. The injected events land in Metrics.FaultLog
	// and, when a Recorder is attached, as zero-length "fault:<kind>"
	// trace spans.
	Chaos *simnet.Faults
	// Resilience tunes the retransmit protocol of a chaos run; the zero
	// value selects the defaults. Ignored when Chaos is off.
	Resilience mpi.Resilience
	// CPUProfile, when non-empty, is the file a pprof CPU profile of the run
	// is written to. Like Recorder and Sanitize it sees this process only,
	// so multi-process runs reject it.
	CPUProfile string
	// Procs splits the run across this many OS processes connected by the
	// TCP wire transport (internal/wire); each child process owns a
	// contiguous rank block. 0 or 1 keeps the whole world in one process
	// over the channel transport. Multi-process runs require the job to
	// implement driver.ConfigJob (both bundled applications do) and reject
	// Recorder and Sanitize, which are in-process instruments.
	Procs int
	// ProcTimeout bounds a multi-process run end to end, spawn through
	// teardown; zero selects 2 minutes. On expiry the parent kills the
	// whole child process tree.
	ProcTimeout time.Duration
}

// sanitizeForced reports whether the environment forces sanitized runs.
func sanitizeForced() bool { return os.Getenv("AMRSAN") == "1" }

// Metrics aggregates a run across ranks the way the paper reports results.
type Metrics struct {
	Ranks int
	Cores int
	// Total and Refine are the maxima across ranks (job completion times);
	// NoRefine is their difference.
	Total, Refine, NoRefine time.Duration
	// Flops is the total stencil work.
	Flops int64
	// GFLOPS is Flops / Total / 1e9; NRGFLOPS uses the non-refinement time.
	GFLOPS, NRGFLOPS float64
	// HostEff and NRHostEff normalise the run by the host's measured
	// compute capacity: ideal stencil time divided by the measured total
	// (or non-refinement) time. They isolate communication and runtime
	// overhead on hosts with fewer physical cores than virtual ones; see
	// the calibration notes in calibrate.go.
	HostEff, NRHostEff float64
	// Tasks is the total task count (data-flow only).
	Tasks int
	// Checksums is rank 0's validated checksum history.
	Checksums [][]float64
	// FinalBlocks is the total block count at the end.
	FinalBlocks int
	// Messages and CommBytes total the point-to-point traffic of all ranks.
	Messages, CommBytes int64
	// Arena is the world buffer arena's traffic: pooled gets/puts, hit
	// rate, and (for a clean run) zero live buffers. All ranks share one
	// arena, so these are whole-job counters.
	Arena membuf.Stats
	// HeapAllocs is the number of heap objects the process allocated while
	// the job ran (a runtime.MemStats.Mallocs delta). Together with Arena
	// it shows how much of the message traffic the pooling absorbs.
	HeapAllocs uint64
	// MeshHistory and MeshView come from rank 0 (replicated state).
	MeshHistory []driver.MeshStat
	MeshView    string
	// Sanitizer holds the amrsan findings of a sanitized run (nil when the
	// sanitizer was off; empty for a clean sanitized run).
	Sanitizer []sanitize.Report
	// Faults counts the injected faults of a chaos run by kind.
	Faults simnet.FaultStats
	// FaultLog is the chaos run's injected-event schedule, sorted
	// deterministically: the same seed yields a byte-identical log.
	FaultLog []simnet.FaultEvent
	// Chaos counts the transport's recovery work (retransmits, discarded
	// duplicates, reordered arrivals, recovered drops, abandoned sends).
	Chaos mpi.ChaosStats
}

// profileCPU starts a CPU profile of this process into the file at path;
// stop ends it and closes the file.
func profileCPU(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("harness: cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close() // nothing was written; the start error is the one to report
		return nil, fmt.Errorf("harness: cpu profile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// Run executes a spec and aggregates the metrics.
func Run(spec RunSpec) (m Metrics, err error) {
	if spec.Procs > 1 {
		return runMultiProc(spec)
	}
	if spec.CPUProfile != "" {
		stop, err := profileCPU(spec.CPUProfile)
		if err != nil {
			return Metrics{}, err
		}
		defer func() {
			if cerr := stop(); err == nil && cerr != nil {
				m, err = Metrics{}, fmt.Errorf("harness: cpu profile: %w", cerr)
			}
		}()
	}
	job := spec.Job
	if job == nil {
		job = app.Job(spec.Cfg)
	}
	if err := driver.CheckVariant(job.App(), spec.Variant); err != nil {
		return Metrics{}, err
	}
	topo, err := cluster.New(spec.Nodes, spec.RanksPerNode, spec.CoresPerRank)
	if err != nil {
		return Metrics{}, err
	}
	world := mpi.NewWorld(topo, spec.Net)
	var inj *simnet.Injector
	if spec.Chaos != nil && spec.Chaos.Enabled() {
		inj = simnet.NewInjector(*spec.Chaos)
		if rec := spec.Recorder; rec != nil {
			inj.OnEvent = func(ev simnet.FaultEvent) {
				now := time.Now()
				rec.Record(ev.Src, 0, "fault:"+ev.Kind.String(), now, now)
			}
		}
		world.EnableChaos(inj, spec.Resilience)
	}
	var san *sanitize.Sanitizer
	if spec.Sanitize || sanitizeForced() {
		san = sanitize.New(sanitize.Options{})
		san.Attach(world)
	}
	program, err := job.Bind(spec.Variant, spec.CoresPerRank, san)
	if err != nil {
		return Metrics{}, err
	}
	results := make([]driver.Result, topo.Ranks())
	errs := make([]error, topo.Ranks())
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	runErr := world.Run(func(c *mpi.Comm) {
		res, err := program(c, spec.Recorder)
		if err != nil {
			errs[c.Rank()] = err
			panic(err) // surface through World.Run and fail peers fast
		}
		results[c.Rank()] = res
	})
	if inj != nil && runErr == nil {
		// Drain the reliable path before any audit or stats snapshot:
		// a dropped ack can leave a sender's outbox clone leased after
		// every rank's program has returned, and the sanitizer would
		// (rightly, but unhelpfully) flag the in-flight retransmit
		// state as a leak.
		world.QuiesceReliable(5 * time.Second)
	}
	var findings []sanitize.Report
	if san != nil {
		findings = san.Finish()
	}
	for _, err := range errs {
		if err != nil {
			return Metrics{}, err
		}
	}
	if runErr != nil {
		return Metrics{}, runErr
	}

	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)

	m = Metrics{
		Ranks: topo.Ranks(), Cores: topo.Cores(),
		Arena:      world.Arena().Stats(),
		HeapAllocs: ms1.Mallocs - ms0.Mallocs,
		Sanitizer:  findings,
	}
	if inj != nil {
		m.Faults = inj.Stats()
		m.FaultLog = inj.Log()
		m.Chaos = world.ChaosStats()
	}
	m.aggregate(results)
	return m, nil
}

// aggregate folds the per-rank results into the cross-rank aggregates and
// derived rates the paper reports. Checksums, mesh history and the mesh
// view come from rank 0 (replicated state). Both execution modes — the
// in-process world and the multi-process parent — funnel through here, so
// a metric's definition cannot drift between them.
func (m *Metrics) aggregate(results []driver.Result) {
	m.Checksums = results[0].Checksums
	m.MeshHistory = results[0].MeshHistory
	m.MeshView = results[0].FinalMeshView
	for _, r := range results {
		if r.TotalTime > m.Total {
			m.Total = r.TotalTime
		}
		if r.RefineTime > m.Refine {
			m.Refine = r.RefineTime
		}
		m.Flops += r.Flops
		m.Tasks += r.TaskCount
		m.FinalBlocks += r.FinalBlocks
		m.Messages += r.Comm.Messages
		m.CommBytes += r.Comm.Bytes
	}
	m.NoRefine = m.Total - m.Refine
	if m.Total > 0 {
		m.GFLOPS = float64(m.Flops) / m.Total.Seconds() / 1e9
	}
	if m.NoRefine > 0 {
		m.NRGFLOPS = float64(m.Flops) / m.NoRefine.Seconds() / 1e9
	}
	ideal := float64(m.Flops) / hostCapacity(m.Cores)
	if m.Total > 0 {
		m.HostEff = ideal / m.Total.Seconds()
	}
	if m.NoRefine > 0 {
		m.NRHostEff = ideal / m.NoRefine.Seconds()
	}
}
