package hydro

import (
	"testing"

	"miniamr/internal/allocguard"
	"miniamr/internal/cluster"
	"miniamr/internal/driver"
	"miniamr/internal/mpi"
	"miniamr/internal/simnet"
)

// BenchmarkDataFlowStep measures one drained timestep of the data-flow
// driver on the test grid: the CFL scan and reduction, both sweep stages
// with their ghost exchanges, and a checksum.
func BenchmarkDataFlowStep(b *testing.B) { benchDataFlowStep(b, testConfig(), 2) }

// benchDataFlowStep is the benchmark body, shared with the allocation
// guards: b.N drained timesteps (see dataFlowSteps).
func benchDataFlowStep(b *testing.B, cfg Config, ranks int) {
	b.ReportAllocs()
	step, stop := dataFlowSteps(b, cfg, ranks)
	defer stop()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
}

// dataFlowSteps runs the data-flow driver on every rank of a world and
// returns step, which has each rank run one drained timestep (the CFL scan
// and reduction, both sweep stages with their ghost exchanges, and a
// checksum) and waits for all of them, and stop, which ends the run. The
// first steps fill the free lists of the task records, job records and
// bindings before it returns. step hands the ranks over by channel, which
// allocates nothing.
func dataFlowSteps(tb testing.TB, cfg Config, ranks int) (step, stop func()) {
	if err := cfg.Validate(); err != nil {
		tb.Fatal(err)
	}
	w := mpi.NewWorld(cluster.MustNew(1, ranks, 1), simnet.None())
	start := make([]chan struct{}, ranks)
	for i := range start {
		start[i] = make(chan struct{})
	}
	done := make(chan struct{}, ranks)
	errc := make(chan error, 1)
	go func() {
		errc <- w.Run(func(c *mpi.Comm) {
			d := &dfDriver{s: newState(&cfg, c, nil)}
			g, err := driver.NewGraphEngine(driver.GraphOptions{
				Comm: c, Workers: cfg.Workers, ScratchLen: scratchLen(&cfg), Describe: d.describe,
			})
			if err != nil {
				panic(err)
			}
			d.reserve(g)
			ts := 0
			for range start[c.Rank()] {
				ts++
				must(d.BeginStep(ts))
				for st := 1; st <= 2; st++ {
					must(d.Communicate(st, 0, hydroVars))
					must(d.Compute(st, 0, hydroVars))
				}
				must(d.Checksum(ts))
				g.Wait()
				done <- struct{}{}
			}
			g.Close()
			d.s.close()
		})
	}()
	step = func() {
		for _, s := range start {
			s <- struct{}{}
		}
		for range start {
			<-done
		}
	}
	for i := 0; i < 5; i++ {
		step()
	}
	return step, func() {
		for _, s := range start {
			close(s)
		}
		if err := <-errc; err != nil {
			tb.Fatal(err)
		}
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// TestAllocBudgets is the data-flow driver's allocation table: one drained
// timestep on two ranks. Task bodies are recycled job records, so what is
// left is the tampi layer's per message (a boxed receive buffer and the
// bound requests, which are never freed), the CFL reduction's and the
// checksum's collectives, and the free lists' occasional high water.
// TestDataFlowAllocsDoNotGrowWithTiles guards that the count does not grow
// with the tiles.
func TestAllocBudgets(t *testing.T) {
	step, stop := dataFlowSteps(t, testConfig(), 2)
	defer stop()
	allocguard.Check(t, []allocguard.Row{
		{"data-flow timestep, 16 tiles", 25, step},
	})
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
