package harness

import (
	"testing"

	"miniamr/internal/hydro"
	"miniamr/internal/simnet"
)

// dataFlowAllocsPerTask is the data-flow variant's end-to-end allocation
// budget: heap objects of a whole run (mesh, plans, refinement and all)
// per task spawned. A task needs its body closure and the boxed struct
// keys it declares; the runtime (task records, successor lists, access
// lists) and the task-aware MPI binding add a fraction of an object on
// top. The goroutine-per-task runtime with per-spawn access lists sat at
// 14 on miniAMR and 10 on HYDRO.
const dataFlowAllocsPerTask = 6

// TestDataFlowAllocsPerTask guards that budget at the shapes of the
// benchmark's runtime-bound workloads: miniAMR on small blocks at level 3
// with the paper's data-flow options, and HYDRO on 16x16 tiles with
// separate buffers, both as 2 ranks x 2 cores.
func TestDataFlowAllocsPerTask(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget needs full-size runs")
	}
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	fine := FourSpheres([3]int{2, 2, 1}, Scale{BlockCells: 6, Vars: 4, Timesteps: 4, StagesPerTimestep: 10, MaxLevel: 3})
	DataFlowOptions(&fine)
	tiles := hydro.Job(hydro.Config{
		NX: 256, NY: 256, TilesX: 16, TilesY: 16,
		Timesteps: 20, ChecksumEvery: 4, SeparateBuffers: true,
	})
	for name, spec := range map[string]RunSpec{
		"miniamr-fine": {Cfg: fine},
		"hydro-tiles":  {Job: tiles},
	} {
		spec.Nodes, spec.RanksPerNode, spec.CoresPerRank = 1, 2, 2
		spec.Net, spec.Variant = simnet.None(), DataFlow
		m, err := Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if per := float64(m.HeapAllocs) / float64(m.Tasks); per > dataFlowAllocsPerTask {
			t.Errorf("%s: %.2f heap objects per task (%d / %d tasks), want <= %d",
				name, per, m.HeapAllocs, m.Tasks, dataFlowAllocsPerTask)
		} else {
			t.Logf("%s: %.2f heap objects per task", name, per)
		}
	}
}
