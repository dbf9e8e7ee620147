package harness

import (
	"math"
	"sync/atomic"
	"testing"

	"miniamr/internal/hydro"
	"miniamr/internal/simnet"
	"miniamr/internal/task"
)

// stencilCounter is a task observer that counts the stencil tasks of a
// run: one per owned block and stage, the unit the per-stage task budget
// is expressed in.
type stencilCounter struct{ n atomic.Int64 }

func (c *stencilCounter) TaskSpawned(_ uint64, label string, _ []task.Access) {
	if label == "stencil" {
		c.n.Add(1)
	}
}
func (c *stencilCounter) TaskDependence(uint64, uint64) {}
func (c *stencilCounter) TaskFinished(uint64)           {}
func (c *stencilCounter) Quiesced()                     {}
func (c *stencilCounter) RegionsReset()                 {}

// TestDataFlowAllocsPerTask guards the data-flow variant's end-to-end
// allocation budget — heap objects of a whole run (mesh, plans, refinement
// and all) per task spawned — at the shapes of the benchmark's
// runtime-bound workloads, all as 2 ranks x 2 cores: miniAMR on small
// blocks at level 3 with the paper's data-flow options, the same refining
// after every single-stage timestep, and HYDRO on 16x16 tiles with
// separate buffers. A task needs its body closure; the regions it declares
// are integer handles, and the runtime (task records, successor lists) and
// the task-aware MPI binding add a fraction of an object on top. The budgets
// are this test's readings since regions became handles (1.3 to 2.2 — the
// first runs of a process read high —, 2.1 and 1.1), rounded up to the next
// half: boxed keys on a hashed dependency map sat at 1.7 to 2.5, 5.6 and 1.1,
// per-face copy tasks before them at 3.3, 9.1 and 1.1, the
// goroutine-per-task runtime at 14, 19 and 10.
//
// On miniAMR it also guards the granularity: tasks per block and stage.
// Stencil, fill and the block's share of messages and checksums make 2.6;
// a task per copied face made 7.9, most of them below the runtime's
// minimum effective task granularity.
func TestDataFlowAllocsPerTask(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget needs full-size runs")
	}
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	root := [3]int{2, 2, 1}
	fine := FourSpheres(root, Scale{BlockCells: 6, Vars: 4, Timesteps: 4, StagesPerTimestep: 10, MaxLevel: 3})
	DataFlowOptions(&fine)
	refine := FourSpheres(root, Scale{BlockCells: 8, Vars: 8, Timesteps: 8, StagesPerTimestep: 1, MaxLevel: 3})
	DataFlowOptions(&refine)
	refine.RefineEvery, refine.ChecksumEvery = 1, 4
	for i := range refine.Objects {
		o := &refine.Objects[i]
		o.Move[0] = math.Copysign(0.12, o.Move[0])
		o.Bounce = true
	}
	const tasksPerBlockStage = 2.7
	var stencils stencilCounter
	fine.TaskObserver = func(int) task.Observer { return &stencils }
	tiles := hydro.Job(hydro.Config{
		NX: 256, NY: 256, TilesX: 16, TilesY: 16,
		Timesteps: 20, ChecksumEvery: 4, SeparateBuffers: true,
	})
	for _, tc := range []struct {
		name     string
		spec     RunSpec
		budget   float64
		stencils *stencilCounter // set where the granularity is guarded too
	}{
		{"miniamr-fine", RunSpec{Cfg: fine}, 2.5, &stencils},
		{"miniamr-refine", RunSpec{Cfg: refine}, 2.5, nil},
		{"hydro-tiles", RunSpec{Job: tiles}, 1.5, nil},
	} {
		spec := tc.spec
		spec.Nodes, spec.RanksPerNode, spec.CoresPerRank = 1, 2, 2
		spec.Net, spec.Variant = simnet.None(), DataFlow
		m, err := Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if per := float64(m.HeapAllocs) / float64(m.Tasks); per > tc.budget {
			t.Errorf("%s: %.2f heap objects per task (%d / %d tasks), want <= %v",
				tc.name, per, m.HeapAllocs, m.Tasks, tc.budget)
		} else {
			t.Logf("%s: %.2f heap objects per task", tc.name, per)
		}
		if tc.stencils == nil {
			continue
		}
		if n := tc.stencils.n.Load(); n == 0 {
			t.Errorf("%s: no stencil task seen", tc.name)
		} else if per := float64(m.Tasks) / float64(n); per > tasksPerBlockStage {
			t.Errorf("%s: %.2f tasks per block and stage (%d / %d stencils), want <= %v",
				tc.name, per, m.Tasks, n, tasksPerBlockStage)
		} else {
			t.Logf("%s: %.2f tasks per block and stage", tc.name, per)
		}
	}
}

// TestHydroMPIOnlyAllocsPerTimestep is the ghost-exchange baseline's HYDRO
// counterpart (internal/amr/app holds miniAMR's): heap objects per rank and
// timestep of the loop driver on one worker — a CFL reduction, two
// exchange/sweep stages and a checksum — from the difference of two run
// lengths, so set-up cancels. 12.5 is the reading of the hand-written
// MPI-only driver the loop driver replaced (what the Allreduces and the
// boxed receive slices cost); the regions, their reused lists and the bound
// bodies must add nothing to it.
func TestHydroMPIOnlyAllocsPerTimestep(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation baseline needs steady-state iterations")
	}
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	const ranks, extra, budget = 4, 100, 13
	allocs := func(timesteps int) uint64 {
		m, err := Run(RunSpec{
			Nodes: 1, RanksPerNode: ranks, CoresPerRank: 1,
			Net: simnet.None(), Variant: MPIOnly,
			Job: hydro.Job(hydro.Config{
				NX: 24, NY: 16, TilesX: 4, TilesY: 4,
				Timesteps: timesteps, ChecksumEvery: 2,
			}),
		})
		if err != nil {
			t.Fatal(err)
		}
		return m.HeapAllocs
	}
	per := float64(allocs(10+extra)-allocs(10)) / extra / ranks
	if per > budget {
		t.Errorf("HYDRO MPI-only: %.2f heap objects per rank and timestep, want <= %d", per, budget)
	} else {
		t.Logf("HYDRO MPI-only: %.2f heap objects per rank and timestep", per)
	}
}
