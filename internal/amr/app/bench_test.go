package app

import (
	"testing"

	"miniamr/internal/cluster"
	"miniamr/internal/mpi"
	"miniamr/internal/simnet"
)

// BenchmarkGhostExchange measures one full ghost-face exchange (all three
// directions, pack/send/recv/unpack plus local copies) over the test mesh
// with the loop driver on one worker (MPI-only) and no simulated network
// cost. The allocs/op figure tracks the message path's buffer traffic.
func BenchmarkGhostExchange(b *testing.B) { benchGhostExchange(b, testConfig(), 4, 1) }

// benchGhostExchange is the benchmark body, shared with the allocation
// guards in alloc_guard_test.go: b.N exchanges of the configuration's
// unrefined root mesh by the loop driver at the given worker count.
func benchGhostExchange(b *testing.B, cfg Config, ranks, workers int) {
	b.ReportAllocs()
	if err := cfg.Validate(); err != nil {
		b.Fatal(err)
	}
	w := mpi.NewWorld(cluster.MustNew(1, ranks, 1), simnet.None())
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(c *mpi.Comm) {
			s, err := newState(&cfg, c, nil, 1)
			if err != nil {
				panic(err)
			}
			d := newLoopDriver(s, workers)
			for i := 0; i < b.N; i++ {
				if err := d.Communicate(1, 0, cfg.CommVars); err != nil {
					panic(err)
				}
			}
			d.eng.Close()
			s.close()
		})
	}()
	if err := <-done; err != nil {
		b.Fatal(err)
	}
}

// TestArenaLeakFree is the arena's property test over real workloads:
// after a full run of each variant — refinement, load balance, block
// exchange, checksums and all — every buffer taken from the world's arena
// must have been returned (Live == 0) and every lease fully released.
func TestArenaLeakFree(t *testing.T) {
	for name, run := range variants {
		name, run := name, run
		t.Run(name, func(t *testing.T) {
			cfg := testConfig()
			w := mpi.NewWorld(cluster.MustNew(1, 3, 1), simnet.None())
			w.Arena().SetDebug(true) // any double Put panics at the fault
			err := w.Run(func(c *mpi.Comm) {
				if _, err := run(cfg, c, nil); err != nil {
					panic(err)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			st := w.Arena().Stats()
			if st.Live != 0 || st.LeasesLive != 0 {
				t.Fatalf("arena leak after %s run: %+v", name, st)
			}
			if st.Gets != st.Puts {
				t.Fatalf("unbalanced arena traffic after %s run: %+v", name, st)
			}
			if st.Gets == 0 {
				t.Fatalf("arena unused by %s run; the message path should pool", name)
			}
		})
	}
}

// BenchmarkDataFlowStages measures one round of the data-flow driver's
// steady-state stages over the test mesh: ghost exchange, stencil and
// checksum, drained. The allocs/op figure is what spawning costs the heap.
func BenchmarkDataFlowStages(b *testing.B) { benchDataFlowStages(b, testConfig(), 2) }

// benchDataFlowStages is the benchmark body, shared with the allocation
// guard in alloc_guard_test.go: b.N drained rounds of Communicate, Compute
// and Checksum by the data-flow driver on the configuration's unrefined root
// mesh, counted after warm-up rounds that fill the free lists of the task
// records, job records and bindings.
func benchDataFlowStages(b *testing.B, cfg Config, ranks int) {
	b.ReportAllocs()
	w := mpi.NewWorld(cluster.MustNew(1, ranks, 1), simnet.None())
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(c *mpi.Comm) {
			d, err := newDataFlowDriver(&cfg, c, nil)
			if err != nil {
				panic(err)
			}
			round := func() {
				if err := d.Communicate(1, 0, cfg.CommVars); err != nil {
					panic(err)
				}
				if err := d.Compute(1, 0, cfg.CommVars); err != nil {
					panic(err)
				}
				if err := d.Checksum(1); err != nil {
					panic(err)
				}
				d.g.Wait()
			}
			for i := 0; i < 5; i++ {
				round()
			}
			timed(c, b.ResetTimer)
			for i := 0; i < b.N; i++ {
				round()
			}
			timed(c, b.StopTimer)
			d.g.Close()
			d.s.close()
		})
	}()
	if err := <-done; err != nil {
		b.Fatal(err)
	}
}

// timed runs a timer call of the benchmark on rank 0 while every rank waits
// between two barriers, so no rank's work straddles it.
func timed(c *mpi.Comm, call func()) {
	if err := c.Barrier(); err != nil {
		panic(err)
	}
	if c.Rank() == 0 {
		call()
	}
	if err := c.Barrier(); err != nil {
		panic(err)
	}
}
