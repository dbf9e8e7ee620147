// Command miniamr runs one AMR simulation on a virtual cluster, in any of
// the three parallelisation variants the paper evaluates. Flags mirror the
// miniAMR options the paper discusses plus the reproduction's cluster
// controls.
//
// Examples:
//
//	miniamr -variant dataflow -nodes 2 -ranks-per-node 1 -cores-per-rank 4 \
//	        -input four-spheres -timesteps 6 -stages 6
//	miniamr -variant mpionly -nodes 2 -ranks-per-node 4 -trace trace.csv
package main

import (
	"flag"
	"fmt"
	"os"

	"miniamr/internal/amr/app"
	"miniamr/internal/harness"
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

		input      = flag.String("input", "four-spheres", "problem preset: single-sphere or four-spheres")
		npx        = flag.Int("npx", 0, "root blocks in x (0: derived from the cluster size)")
		npy        = flag.Int("npy", 0, "root blocks in y")
		npz        = flag.Int("npz", 0, "root blocks in z")
		blockCells = flag.Int("block-size", 8, "cells per block edge (even)")
		vars       = flag.Int("vars", 8, "variables per cell")
		commVars   = flag.Int("comm-vars", 0, "variables per communication group (0: all)")
		timesteps  = flag.Int("timesteps", 6, "number of timesteps")
		stages     = flag.Int("stages", 6, "stages per timestep")
		maxLevel   = flag.Int("max-level", 2, "maximum refinement level")

		sendFaces   = flag.Bool("send-faces", false, "one message per face (--send_faces)")
		maxComm     = flag.Int("max-comm-tasks", 0, "cap on communication tasks per neighbour and direction (--max_comm_tasks)")
		sepBufs     = flag.Bool("separate-buffers", false, "per-direction communication buffers (--separate_buffers)")
		delayedCk   = flag.Bool("delayed-checksum", false, "validate the previous checksum stage (OmpSs-2 taskwait with deps)")
		seqRefine   = flag.Bool("sequential-refine", false, "serialise the data-flow refinement phase (ablation)")
		stencil     = flag.Int("stencil", 7, "stencil kernel: 7 or 27 points")
		partition   = flag.String("partitioner", "rcb", "load-balance policy: rcb or sfc")
		fjSchedule  = flag.String("fj-schedule", "static", "fork-join loop schedule: static or dynamic")
		noLB        = flag.Bool("no-load-balance", false, "skip post-refinement load balancing (ablation)")
		blockTampi  = flag.Bool("blocking-tampi", false, "use blocking TAMPI operations in communication tasks")
		uniformRef  = flag.Bool("uniform-refine", false, "refine every block each epoch (--uniform_refine)")
		showMesh    = flag.Bool("show-mesh", false, "print an ASCII slice (z=0.5) of the final mesh")
		checkpoint  = flag.String("checkpoint", "", "write per-rank snapshots at the end (pattern with %d, e.g. ck-%d.bin)")
		restore     = flag.String("restore", "", "resume from per-rank snapshots (pattern with %d)")
		chromeOut   = flag.String("chrome-trace", "", "write the trace in Chrome Trace Event JSON to this path (with -trace or alone)")
		netModel    = flag.String("net", "default", "interconnect model: none, default or slow")
		tracePath   = flag.String("trace", "", "write an execution trace CSV to this path")
		traceWidth  = flag.Int("trace-width", 100, "columns of the printed timeline (with -trace)")
		sanitizeOn  = flag.Bool("sanitize", false, "run under the amrsan runtime sanitizer (also AMRSAN=1); findings go to stderr and exit status 1")
		chaosOn     = flag.Bool("chaos", false, "inject a seeded fault schedule (drops, duplicates, latency spikes, partitions, stalls) and run the MPI layer's retransmit/ack path")
		chaosSeed   = flag.Uint64("chaos-seed", 1, "seed of the fault schedule (with -chaos); the same seed reproduces the same injected-event log")
		ranksRemote = flag.Int("ranks-remote", 0, "split the world across this many OS processes connected by the TCP wire transport (0: one process; incompatible with -trace, -sanitize and -cpuprofile)")
		cpuProfile  = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file (read it with go tool pprof; in-process runs only)")
	)
	flag.Parse()

	if err := run(runArgs{
		variant: *variant, nodes: *nodes, ranksPerNode: *ranksPerNode, coresPerRank: *coresPerRank,
		input: *input, np: [3]int{*npx, *npy, *npz}, blockCells: *blockCells, vars: *vars,
		commVars: *commVars, timesteps: *timesteps, stages: *stages, maxLevel: *maxLevel,
		sendFaces: *sendFaces, maxComm: *maxComm, sepBufs: *sepBufs, delayedCk: *delayedCk,
		seqRefine: *seqRefine, netModel: *netModel, tracePath: *tracePath, traceWidth: *traceWidth,
		stencil: *stencil, partitioner: *partition, noLB: *noLB, blockTampi: *blockTampi,
		uniformRefine: *uniformRef, showMesh: *showMesh,
		checkpoint: *checkpoint, restore: *restore, chromeOut: *chromeOut,
		fjSchedule: *fjSchedule, sanitize: *sanitizeOn,
		chaos: *chaosOn, chaosSeed: *chaosSeed, procs: *ranksRemote, cpuProfile: *cpuProfile,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "miniamr:", err)
		os.Exit(1)
	}
}

type runArgs struct {
	variant                           string
	nodes, ranksPerNode, coresPerRank int
	input                             string
	np                                [3]int
	blockCells, vars, commVars        int
	timesteps, stages, maxLevel       int
	sendFaces                         bool
	maxComm                           int
	sepBufs, delayedCk, seqRefine     bool
	netModel                          string
	tracePath                         string
	traceWidth                        int
	stencil                           int
	partitioner                       string
	noLB, blockTampi                  bool
	uniformRefine, showMesh           bool
	checkpoint, restore               string
	chromeOut, fjSchedule             string
	sanitize                          bool
	chaos                             bool
	chaosSeed                         uint64
	procs                             int
	cpuProfile                        string
}

func run(a runArgs) error {
	sc := harness.Scale{
		BlockCells: a.blockCells, Vars: a.vars,
		Timesteps: a.timesteps, StagesPerTimestep: a.stages, MaxLevel: a.maxLevel,
	}
	root := a.np
	if root[0] == 0 || root[1] == 0 || root[2] == 0 {
		// One root block per core by default, the paper's weak-scaling rule.
		var err error
		root, err = defaultRoot(a.nodes * a.ranksPerNode * a.coresPerRank)
		if err != nil {
			return err
		}
	}

	var cfg app.Config
	switch a.input {
	case "single-sphere":
		cfg = harness.SingleSphere(root, sc)
	case "four-spheres":
		cfg = harness.FourSpheres(root, sc)
	default:
		return fmt.Errorf("unknown input %q (want single-sphere or four-spheres)", a.input)
	}
	cfg.CommVars = a.commVars
	cfg.SendFaces = a.sendFaces
	cfg.MaxCommTasks = a.maxComm
	cfg.SeparateBuffers = a.sepBufs
	cfg.DelayedChecksum = a.delayedCk
	cfg.SequentialRefinement = a.seqRefine
	cfg.Stencil = a.stencil
	cfg.Partitioner = a.partitioner
	cfg.DisableLoadBalance = a.noLB
	cfg.BlockingTAMPI = a.blockTampi
	cfg.UniformRefine = a.uniformRefine
	cfg.RenderMesh = a.showMesh
	cfg.CheckpointFile = a.checkpoint
	cfg.RestoreFile = a.restore
	cfg.ForkJoinSchedule = a.fjSchedule

	var net simnet.Model
	switch a.netModel {
	case "none":
		net = simnet.None()
	case "default":
		net = simnet.Default()
	case "slow":
		net = simnet.Slow()
	default:
		return fmt.Errorf("unknown net model %q (want none or default)", a.netModel)
	}

	var rec *trace.Recorder
	if a.tracePath != "" || a.chromeOut != "" {
		rec = trace.NewRecorder()
	}

	spec := harness.RunSpec{
		Nodes: a.nodes, RanksPerNode: a.ranksPerNode, CoresPerRank: a.coresPerRank,
		Net: net, Cfg: cfg, Variant: harness.Variant(a.variant), Recorder: rec,
		Sanitize: a.sanitize, Procs: a.procs, CPUProfile: a.cpuProfile,
	}
	if a.chaos {
		faults := simnet.DefaultFaults(a.chaosSeed)
		spec.Chaos = &faults
	}
	m, err := harness.Run(spec)
	if err != nil {
		return err
	}

	fmt.Printf("variant:           %s\n", a.variant)
	fmt.Printf("cluster:           %d nodes x %d ranks x %d cores (%d ranks, %d cores)\n",
		a.nodes, a.ranksPerNode, a.coresPerRank, m.Ranks, m.Cores)
	if a.procs > 1 {
		fmt.Printf("processes:         %d (TCP wire transport)\n", a.procs)
	}
	fmt.Printf("mesh:              %dx%dx%d root blocks, %d^3 cells, %d vars, max level %d\n",
		root[0], root[1], root[2], a.blockCells, a.vars, a.maxLevel)
	fmt.Printf("total time:        %.3fs\n", m.Total.Seconds())
	fmt.Printf("refinement time:   %.3fs (%.1f%%)\n", m.Refine.Seconds(),
		100*m.Refine.Seconds()/m.Total.Seconds())
	fmt.Printf("non-refinement:    %.3fs\n", m.NoRefine.Seconds())
	fmt.Printf("stencil flops:     %d (%.3f GFLOPS)\n", m.Flops, m.GFLOPS)
	fmt.Printf("final blocks:      %d\n", m.FinalBlocks)
	if m.Tasks > 0 {
		fmt.Printf("tasks spawned:     %d\n", m.Tasks)
	}
	fmt.Printf("checksums passed:  %d\n", len(m.Checksums))
	fmt.Printf("messages sent:     %d (%.2f MB total)\n", m.Messages, float64(m.CommBytes)/1e6)
	fmt.Printf("buffer arena:      %d gets, %.1f%% hit rate, %d live, %d heap allocs\n",
		m.Arena.Gets, 100*m.Arena.HitRate(), m.Arena.Live, m.HeapAllocs)
	if a.chaos {
		fmt.Printf("faults injected:   %d (seed %d): %s\n", m.Faults.Total(), a.chaosSeed, m.Faults)
		fmt.Printf("fault recovery:    %d retransmits, %d drops recovered, %d duplicates discarded, %d reordered, %d abandoned\n",
			m.Chaos.Retransmits, m.Chaos.Recovered, m.Chaos.DupsDiscarded, m.Chaos.Reordered, m.Chaos.Abandoned)
	}
	if len(m.MeshHistory) > 0 {
		last := m.MeshHistory[len(m.MeshHistory)-1]
		fmt.Printf("mesh levels:       %v blocks per level\n", last.PerLevel)
	}
	if m.MeshView != "" {
		fmt.Print(m.MeshView)
	}

	if rec != nil && a.tracePath != "" {
		f, err := os.Create(a.tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.WriteCSV(f, rec.Events()); err != nil {
			return err
		}
		fmt.Printf("trace:             %d events -> %s\n", rec.Len(), a.tracePath)
		fmt.Print(trace.Render(rec.Events(), a.traceWidth))
	}
	if rec != nil && a.chromeOut != "" {
		f, err := os.Create(a.chromeOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.WriteChromeTrace(f, rec.Events()); err != nil {
			return err
		}
		fmt.Printf("chrome trace:      %d events -> %s (open in chrome://tracing)\n", rec.Len(), a.chromeOut)
	}
	if a.checkpoint != "" {
		fmt.Printf("checkpoint:        %s (per rank)\n", a.checkpoint)
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

// defaultRoot arranges n root blocks as evenly as possible over three
// dimensions (one block per core by default).
func defaultRoot(n int) ([3]int, error) {
	if n <= 0 {
		return [3]int{}, fmt.Errorf("cluster must have at least one core")
	}
	return harness.Factor3(n), nil
}
