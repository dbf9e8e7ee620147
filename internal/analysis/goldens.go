package analysis

import (
	"miniamr/internal/amr/app"
	"miniamr/internal/amr/grid"
	"miniamr/internal/amr/object"
	"miniamr/internal/driver"
	"miniamr/internal/hydro"
	"miniamr/internal/task"
)

// Goldens lists the recorded driver graphs committed under
// testdata/golden, and their profiles under testdata/golden/perf: both
// applications' data-flow and loop drivers, and the block-exchange
// handshake, which is the refine phase of the miniAMR loop run. The loop
// graphs are recorded on one worker, whose region spans follow each other
// in program order, and profiled as both loop variants.
func Goldens() []Recording {
	miniamr := func(observe func(int) task.Observer) driver.Job {
		return app.Job(app.Config{
			RootBlocks:        [3]int{2, 2, 1},
			MaxLevel:          1,
			BlockSize:         grid.Size{X: 4, Y: 4, Z: 4},
			Vars:              2,
			Timesteps:         3,
			StagesPerTimestep: 2,
			ChecksumEvery:     2,
			RefineEvery:       1,
			SeparateBuffers:   true,
			Objects: []object.Object{{
				Type:   object.SpheroidSurface,
				Center: [3]float64{0.3, 0.35, 0.4},
				Size:   [3]float64{0.2, 0.2, 0.2},
				Move:   [3]float64{0.2, 0.1, 0.05},
			}},
			TaskObserver: observe,
		})
	}
	hydroJob := func(observe func(int) task.Observer) driver.Job {
		return hydro.Job(hydro.Config{
			NX: 32, NY: 32, TilesX: 4, TilesY: 4,
			Timesteps: 2, ChecksumEvery: 2,
			SeparateBuffers: true,
			TaskObserver:    observe,
		})
	}
	return []Recording{
		{Name: "dataflow", App: "miniamr", Variant: driver.DataFlow, Ranks: 2, Workers: 2, Profiles: []int{16}, Job: miniamr},
		{Name: "loop", App: "miniamr", Variant: driver.MPIOnly, Ranks: 2, Workers: 1, Profiles: []int{1, 16}, Job: miniamr},
		{Name: "exchange", App: "miniamr", Variant: driver.MPIOnly, Ranks: 2, Workers: 1, Profiles: []int{1}, Phases: []string{"refine"}, Job: miniamr},
		{Name: "hydro-dataflow", App: "hydro", Variant: driver.DataFlow, Ranks: 2, Workers: 2, Profiles: []int{16}, Job: hydroJob},
		{Name: "hydro-loop", App: "hydro", Variant: driver.MPIOnly, Ranks: 2, Workers: 1, Profiles: []int{1, 16}, Job: hydroJob},
	}
}
