// Command hydro runs the second application of the reproduction — a 2D
// compressible Euler solver with dimension-split Godunov sweeps — on a
// virtual cluster, in any of the three parallelisation variants. It is
// the port the paper performs for HYDRO: the same driver skeleton as
// miniAMR, a different physics.
//
// Examples:
//
//	hydro -variant dataflow -nodes 2 -ranks-per-node 1 -cores-per-rank 4 \
//	      -nx 128 -ny 128 -tiles-x 8 -tiles-y 8 -timesteps 20
//	hydro -variant mpionly -nodes 2 -ranks-per-node 4 -trace trace.csv
package main

import (
	"flag"
	"fmt"
	"os"

	"miniamr/internal/harness"
	"miniamr/internal/hydro"
	"miniamr/internal/simnet"
	"miniamr/internal/trace"
)

func main() {
	// A multi-process parent re-executes this binary as a wire child; the
	// child role must take over before flag parsing sees the child's argv.
	harness.MaybeRunWireChild()
	var (
		variant      = flag.String("variant", "dataflow", "parallelisation variant: mpionly, forkjoin or dataflow")
		nodes        = flag.Int("nodes", 2, "virtual node count")
		ranksPerNode = flag.Int("ranks-per-node", 1, "MPI ranks per node")
		coresPerRank = flag.Int("cores-per-rank", 4, "cores per rank (workers of hybrid variants)")

		nx         = flag.Int("nx", 96, "global interior cells in x")
		ny         = flag.Int("ny", 96, "global interior cells in y")
		tilesX     = flag.Int("tiles-x", 8, "tiles in x (at least 2, divides nx)")
		tilesY     = flag.Int("tiles-y", 8, "tiles in y (at least 2, divides ny)")
		timesteps  = flag.Int("timesteps", 10, "number of timesteps (two sweep stages each)")
		ckEvery    = flag.Int("checksum-every", 2, "validate checksums every N stages (negative: off)")
		cfl        = flag.Float64("cfl", 0.4, "CFL safety factor")
		gamma      = flag.Float64("gamma", 1.4, "ideal-gas adiabatic index")
		sepBufs    = flag.Bool("separate-buffers", false, "per-direction buffer-section keys in the data-flow variant")
		blockTampi = flag.Bool("blocking-tampi", false, "use blocking TAMPI operations in communication tasks")

		netModel    = flag.String("net", "default", "interconnect model: none, default or slow")
		tracePath   = flag.String("trace", "", "write an execution trace CSV to this path")
		traceWidth  = flag.Int("trace-width", 100, "columns of the printed timeline (with -trace)")
		sanitizeOn  = flag.Bool("sanitize", false, "run under the amrsan runtime sanitizer (also AMRSAN=1); findings go to stderr and exit status 1")
		chaosOn     = flag.Bool("chaos", false, "inject a seeded fault schedule and run the MPI layer's retransmit/ack path")
		chaosSeed   = flag.Uint64("chaos-seed", 1, "seed of the fault schedule (with -chaos)")
		ranksRemote = flag.Int("ranks-remote", 0, "split the world across this many OS processes connected by the TCP wire transport (0: one process; incompatible with -trace, -sanitize and -cpuprofile)")
		cpuProfile  = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file (read it with go tool pprof; in-process runs only)")
	)
	flag.Parse()

	cfg := hydro.Config{
		NX: *nx, NY: *ny,
		TilesX: *tilesX, TilesY: *tilesY,
		Timesteps:       *timesteps,
		ChecksumEvery:   *ckEvery,
		CFL:             *cfl,
		Gamma:           *gamma,
		SeparateBuffers: *sepBufs,
		BlockingTAMPI:   *blockTampi,
	}

	var net simnet.Model
	switch *netModel {
	case "none":
		net = simnet.None()
	case "default":
		net = simnet.Default()
	case "slow":
		net = simnet.Slow()
	default:
		fmt.Fprintf(os.Stderr, "hydro: unknown net model %q (want none, default or slow)\n", *netModel)
		os.Exit(1)
	}

	var rec *trace.Recorder
	if *tracePath != "" {
		rec = trace.NewRecorder()
	}

	spec := harness.RunSpec{
		Nodes: *nodes, RanksPerNode: *ranksPerNode, CoresPerRank: *coresPerRank,
		Net: net, Job: hydro.Job(cfg), Variant: harness.Variant(*variant),
		Recorder: rec, Sanitize: *sanitizeOn, Procs: *ranksRemote, CPUProfile: *cpuProfile,
	}
	if *chaosOn {
		faults := simnet.DefaultFaults(*chaosSeed)
		spec.Chaos = &faults
	}
	if err := run(spec, cfg, rec, *tracePath, *traceWidth, *chaosOn, *chaosSeed); err != nil {
		fmt.Fprintln(os.Stderr, "hydro:", err)
		os.Exit(1)
	}
}

func run(spec harness.RunSpec, cfg hydro.Config, rec *trace.Recorder, tracePath string, traceWidth int, chaos bool, chaosSeed uint64) error {
	m, err := harness.Run(spec)
	if err != nil {
		return err
	}

	fmt.Printf("variant:           %s\n", spec.Variant)
	fmt.Printf("cluster:           %d nodes x %d ranks x %d cores (%d ranks, %d cores)\n",
		spec.Nodes, spec.RanksPerNode, spec.CoresPerRank, m.Ranks, m.Cores)
	if spec.Procs > 1 {
		fmt.Printf("processes:         %d (TCP wire transport)\n", spec.Procs)
	}
	fmt.Printf("grid:              %dx%d cells in %dx%d tiles, %d timesteps\n",
		cfg.NX, cfg.NY, cfg.TilesX, cfg.TilesY, cfg.Timesteps)
	fmt.Printf("total time:        %.3fs\n", m.Total.Seconds())
	fmt.Printf("sweep flops:       %d (%.3f GFLOPS)\n", m.Flops, m.GFLOPS)
	fmt.Printf("tiles:             %d\n", m.FinalBlocks)
	if m.Tasks > 0 {
		fmt.Printf("tasks spawned:     %d\n", m.Tasks)
	}
	fmt.Printf("checksums passed:  %d\n", len(m.Checksums))
	fmt.Printf("messages sent:     %d (%.2f MB total)\n", m.Messages, float64(m.CommBytes)/1e6)
	fmt.Printf("buffer arena:      %d gets, %.1f%% hit rate, %d live, %d heap allocs\n",
		m.Arena.Gets, 100*m.Arena.HitRate(), m.Arena.Live, m.HeapAllocs)
	if chaos {
		fmt.Printf("faults injected:   %d (seed %d): %s\n", m.Faults.Total(), chaosSeed, m.Faults)
		fmt.Printf("fault recovery:    %d retransmits, %d drops recovered, %d duplicates discarded, %d reordered, %d abandoned\n",
			m.Chaos.Retransmits, m.Chaos.Recovered, m.Chaos.DupsDiscarded, m.Chaos.Reordered, m.Chaos.Abandoned)
	}

	if rec != nil && tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.WriteCSV(f, rec.Events()); err != nil {
			return err
		}
		fmt.Printf("trace:             %d events -> %s\n", rec.Len(), tracePath)
		fmt.Print(trace.Render(rec.Events(), traceWidth))
	}
	if m.Sanitizer != nil {
		if len(m.Sanitizer) == 0 {
			fmt.Printf("sanitizer:         clean (0 findings)\n")
		} else {
			for _, r := range m.Sanitizer {
				fmt.Fprintln(os.Stderr, r)
			}
			return fmt.Errorf("sanitizer reported %d finding(s)", len(m.Sanitizer))
		}
	}
	return nil
}
