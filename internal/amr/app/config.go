// Package app assembles the complete AMR mini-application: the miniAMR
// main loop (communicate, stencil, checksum, refinement with load
// balancing) in three interchangeable parallelisation variants:
//
//   - MPIOnly: the reference single-threaded-per-rank version
//     (Algorithm 1/2 of the paper), one rank per core, non-blocking MPI
//     with Waitany-driven unpacking.
//   - ForkJoin: the hybrid MPI+OpenMP comparison variant: loop-parallel
//     computation with static scheduling, all MPI on the master.
//   - DataFlow: the paper's contribution, TAMPI+OmpSs-2 style: every phase
//     taskified and connected through data dependencies, communications
//     issued from tasks through the task-aware MPI layer.
//
// All variants run the same deterministic numerics, so for a fixed rank
// count they produce bit-identical checksums — the correctness oracle the
// test suite leans on.
package app

import (
	"fmt"
	"strings"

	"miniamr/internal/amr/grid"
	"miniamr/internal/amr/object"
	"miniamr/internal/sanitize"
	"miniamr/internal/task"
)

// Config describes one simulation. The option names follow the miniAMR
// command-line flags the paper discusses.
type Config struct {
	// RootBlocks is the initial number of blocks per dimension.
	RootBlocks [3]int
	// MaxLevel is the deepest refinement level.
	MaxLevel int
	// BlockSize is the interior cell extent of every block.
	BlockSize grid.Size
	// Vars is the number of variables per cell.
	Vars int
	// CommVars is the group width for communication/stencil variable
	// groups (--comm_vars). Zero means all variables in one group.
	CommVars int
	// Stencil selects the stencil kernel (--stencil): 7 (default) or 27
	// points. The 27-point stencil consumes edge/corner ghosts, which are
	// synthesised locally (see grid.FillGhostEdges).
	Stencil int

	// Timesteps and StagesPerTimestep shape the main loop.
	Timesteps         int
	StagesPerTimestep int
	// ChecksumEvery performs checksum validation every N stages.
	ChecksumEvery int
	// RefineEvery performs a refinement (and load-balancing) phase every N
	// timesteps.
	RefineEvery int

	// Objects drive refinement.
	Objects []object.Object
	// UniformRefine makes every refinement epoch refine all blocks
	// (miniAMR's --uniform_refine): the mesh reaches the maximum level
	// everywhere, the stress case for refinement and exchange machinery.
	UniformRefine bool

	// SendFaces sends each face in its own message (--send_faces) instead
	// of one aggregated message per neighbour and direction.
	SendFaces bool
	// MaxCommTasks caps the number of communication tasks (and messages)
	// per neighbour and direction when SendFaces is set (--max_comm_tasks).
	// Zero means one task per face.
	MaxCommTasks int
	// SeparateBuffers gives each direction its own communication buffers
	// (--separate_buffers), removing false dependencies between
	// directions in the data-flow variant.
	SeparateBuffers bool
	// DelayedChecksum enables the OmpSs-2 taskwait-with-dependencies
	// optimisation: each checksum stage validates the previous stage's
	// sums, so the barrier does not drain in-flight work.
	DelayedChecksum bool

	// ChecksumTolerance is the allowed relative drift of per-variable
	// global sums between validations. Zero selects the default.
	ChecksumTolerance float64
	// MaxBlocksPerRank bounds receiver capacity in the block exchange
	// protocol; zero selects a generous default (4x the balanced share).
	MaxBlocksPerRank int

	// SequentialRefinement serialises the data-flow variant's refinement
	// phase (no tasks) — the baseline of the paper's Section IV-B claim
	// that taskification removes most of the refinement time.
	SequentialRefinement bool
	// Partitioner selects the load-balancing policy: "rcb" (the reference
	// default) or "sfc" (Morton space-filling curve, an extension).
	// Empty selects "rcb".
	Partitioner string
	// DisableLoadBalance skips the post-refinement block redistribution
	// entirely (ablation: exposes the load imbalance AMR builds up).
	DisableLoadBalance bool
	// ForkJoinSchedule selects the fork-join variant's loop schedule:
	// "static" (the reference behaviour, default) or "dynamic" (workers
	// claim iterations from a shared counter, an OpenMP schedule(dynamic)
	// ablation).
	ForkJoinSchedule string
	// BlockingTAMPI makes the data-flow variant issue blocking TAMPI
	// operations from communication tasks (pausing the task) instead of
	// binding non-blocking requests — the TAMPI library's other operating
	// mode.
	BlockingTAMPI bool

	// RenderMesh fills Result.FinalMeshView with an ASCII slice of the
	// final mesh (z = 0.5).
	RenderMesh bool
	// ValidateMesh checks every mesh invariant (cover, 2:1 balance, tree
	// consistency) after each refinement epoch. Cheap insurance for long
	// runs; on by default in the test suite.
	ValidateMesh bool

	// CheckpointFile, when set, makes every rank write its snapshot at the
	// end of the run. The pattern must contain %d for the rank
	// ("ckpt-%d.bin").
	CheckpointFile string
	// RestoreFile, when set, resumes the run from per-rank snapshot files
	// instead of initialising a fresh mesh; same %d pattern.
	RestoreFile string

	// Workers is the number of cores per rank used by the hybrid variants.
	Workers int
	// DisableImmediateSuccessor turns off the data-flow scheduler's
	// locality policy (ablation).
	DisableImmediateSuccessor bool

	// Sanitizer, when set, wires the amrsan runtime sanitizer into the
	// run: the data-flow variant registers a per-rank task observer and
	// reports its tasks' actual accesses for dependency-race checking.
	// The caller owns attachment to the world (sanitize.Attach) and the
	// end-of-run audit (Finish). Nil costs nothing. Runtime-only: never
	// crosses a process boundary (multi-process children re-attach their
	// own), hence excluded from the wire encoding.
	Sanitizer *sanitize.Sanitizer `json:"-"`
	// TaskObserver, when non-nil, yields a per-rank task lifecycle
	// observer, asked for once per rank: the data-flow variant tees it with
	// the sanitizer's (e.g. a task.NewWidthMeter measuring dynamic
	// concurrency), and every variant passes its stage hooks through it
	// when it is a driver.StageObserver (the task-graph recorder).
	// Runtime-only, like Sanitizer.
	TaskObserver func(rank int) task.Observer `json:"-"`
}

// defaultChecksumTolerance allows for the small non-conservation introduced
// at refinement-level interfaces by restriction/prolongation.
const defaultChecksumTolerance = 0.05

// Validate reports configuration errors and fills zero defaults.
func (c *Config) Validate() error {
	for d := 0; d < 3; d++ {
		if c.RootBlocks[d] <= 0 {
			return fmt.Errorf("app: RootBlocks[%d] must be positive", d)
		}
	}
	if err := c.BlockSize.Validate(); err != nil {
		return err
	}
	if c.MaxLevel < 0 {
		return fmt.Errorf("app: MaxLevel must be non-negative")
	}
	if c.Vars <= 0 {
		return fmt.Errorf("app: Vars must be positive")
	}
	if c.CommVars < 0 || c.CommVars > c.Vars {
		return fmt.Errorf("app: CommVars %d out of range [0,%d]", c.CommVars, c.Vars)
	}
	if c.CommVars == 0 {
		c.CommVars = c.Vars
	}
	if c.Stencil == 0 {
		c.Stencil = 7
	}
	if c.Stencil != 7 && c.Stencil != 27 {
		return fmt.Errorf("app: Stencil must be 7 or 27, got %d", c.Stencil)
	}
	if c.Partitioner == "" {
		c.Partitioner = "rcb"
	}
	if c.Partitioner != "rcb" && c.Partitioner != "sfc" {
		return fmt.Errorf("app: Partitioner must be rcb or sfc, got %q", c.Partitioner)
	}
	if c.ForkJoinSchedule == "" {
		c.ForkJoinSchedule = "static"
	}
	if c.ForkJoinSchedule != "static" && c.ForkJoinSchedule != "dynamic" {
		return fmt.Errorf("app: ForkJoinSchedule must be static or dynamic, got %q", c.ForkJoinSchedule)
	}
	if c.Timesteps <= 0 || c.StagesPerTimestep <= 0 {
		return fmt.Errorf("app: Timesteps and StagesPerTimestep must be positive")
	}
	if c.ChecksumEvery < 0 || c.RefineEvery < 0 {
		return fmt.Errorf("app: ChecksumEvery and RefineEvery must be non-negative")
	}
	if c.ChecksumEvery == 0 {
		c.ChecksumEvery = c.StagesPerTimestep // once per timestep
	}
	if c.RefineEvery == 0 {
		c.RefineEvery = 1
	}
	if c.ChecksumTolerance == 0 {
		c.ChecksumTolerance = defaultChecksumTolerance
	}
	if c.ChecksumTolerance < 0 {
		return fmt.Errorf("app: ChecksumTolerance must be positive")
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.MaxCommTasks < 0 {
		return fmt.Errorf("app: MaxCommTasks must be non-negative")
	}
	if c.MaxBlocksPerRank < 0 {
		return fmt.Errorf("app: MaxBlocksPerRank must be non-negative")
	}
	for _, pattern := range []string{c.CheckpointFile, c.RestoreFile} {
		if pattern != "" && !strings.Contains(pattern, "%d") {
			return fmt.Errorf("app: checkpoint pattern %q must contain %%d for the rank", pattern)
		}
	}
	for i := range c.Objects {
		if err := c.Objects[i].Validate(); err != nil {
			return fmt.Errorf("app: object %d: %w", i, err)
		}
	}
	return nil
}

// Groups returns the variable group boundaries [g0, g1) in order.
func (c *Config) Groups() [][2]int {
	var out [][2]int
	for g0 := 0; g0 < c.Vars; g0 += c.CommVars {
		g1 := g0 + c.CommVars
		if g1 > c.Vars {
			g1 = c.Vars
		}
		out = append(out, [2]int{g0, g1})
	}
	return out
}

// chunkCap translates the message options into the Chunk cap for the
// data-flow variant: aggregated (1), per-face (0), or capped.
func (c *Config) chunkCap() int {
	if !c.SendFaces {
		return 1
	}
	return c.MaxCommTasks
}

// maxBlocks returns the receiver capacity for the exchange protocol given
// the current global block count and rank count.
func (c *Config) maxBlocks(totalBlocks, ranks int) int {
	if c.MaxBlocksPerRank > 0 {
		return c.MaxBlocksPerRank
	}
	per := (totalBlocks + ranks - 1) / ranks
	return 4*per + 8
}
