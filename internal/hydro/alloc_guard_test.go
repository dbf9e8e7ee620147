package hydro

import (
	"testing"

	"miniamr/internal/cluster"
	"miniamr/internal/driver"
	"miniamr/internal/mpi"
	"miniamr/internal/simnet"
)

// BenchmarkDataFlowStep measures one drained timestep of the data-flow
// driver on the test grid: the CFL scan and reduction, both sweep stages
// with their ghost exchanges, and a checksum.
func BenchmarkDataFlowStep(b *testing.B) { benchDataFlowStep(b, testConfig(), 2) }

// benchDataFlowStep is the benchmark body, shared with the allocation guard:
// b.N drained timesteps, counted after warm-up steps that fill the free
// lists of the task records, job records and bindings.
func benchDataFlowStep(b *testing.B, cfg Config, ranks int) {
	b.ReportAllocs()
	if err := cfg.Validate(); err != nil {
		b.Fatal(err)
	}
	w := mpi.NewWorld(cluster.MustNew(1, ranks, 1), simnet.None())
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(c *mpi.Comm) {
			d := &dfDriver{s: newState(&cfg, c, nil)}
			g, err := driver.NewGraphEngine(driver.GraphOptions{
				Comm: c, Workers: cfg.Workers, ScratchLen: scratchLen(&cfg), Describe: d.describe,
			})
			if err != nil {
				panic(err)
			}
			d.reserve(g)
			step := func(ts int) {
				must(d.BeginStep(ts))
				for st := 1; st <= 2; st++ {
					must(d.Communicate(st, 0, hydroVars))
					must(d.Compute(st, 0, hydroVars))
				}
				must(d.Checksum(ts))
				g.Wait()
			}
			for i := 0; i < 5; i++ {
				step(i + 1)
			}
			timed(c, b.ResetTimer)
			for i := 0; i < b.N; i++ {
				step(i + 6)
			}
			timed(c, b.StopTimer)
			g.Close()
			d.s.close()
		})
	}()
	if err := <-done; err != nil {
		b.Fatal(err)
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// timed runs a timer call of the benchmark on rank 0 while every rank waits
// between two barriers, so no rank's work straddles it.
func timed(c *mpi.Comm, call func()) {
	must(c.Barrier())
	if c.Rank() == 0 {
		call()
	}
	must(c.Barrier())
}

// TestDataFlowAllocsDoNotGrowWithTiles guards HYDRO's data-flow spawn path:
// task bodies are recycled job records and TAMPI recycles its bindings, so
// a drained timestep allocates a count that does not grow with the tiles,
// sixteen times as many here. With a closure per spawn it grew by one
// object per task, hundreds per step; the slack of a quarter is the free
// lists' high water, which a step may still raise now and then.
func TestDataFlowAllocsDoNotGrowWithTiles(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation baseline needs steady-state iterations")
	}
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	allocs := func(tiles int) int64 {
		cfg := testConfig()
		cfg.NX, cfg.NY, cfg.TilesX, cfg.TilesY = 8*tiles, 8*tiles, tiles, tiles
		return testing.Benchmark(func(b *testing.B) { benchDataFlowStep(b, cfg, 2) }).AllocsPerOp()
	}
	small, large := allocs(4), allocs(16)
	t.Logf("data-flow step allocs/op: %d on 16 tiles, %d on 256", small, large)
	if large > small+small/4 {
		t.Errorf("data-flow step allocs/op = %d on 256 tiles, %d on 16: they grow with the tiles", large, small)
	}
}
