package app

import "testing"

// ghostExchangeAllocBaseline is the pooled message path's steady-state
// allocation budget for one full ghost exchange, established when the
// zero-copy buffer arena landed: a handful of per-call slice headers,
// nothing proportional to message count or size. Neither the sanitizer
// hooks (while the sanitizer is off) nor the chaos fault hooks (while
// chaos is off) may move it.
const ghostExchangeAllocBaseline = 8

// TestGhostExchangeAllocBaseline guards the sanitizer-off, chaos-off
// fast path: every hook added for amrsan is a nil check and the fault
// path is one nil pointer test in dispatch, so the exchange's allocs/op
// must stay at the pooled-arena baseline. It is measured on the loop
// driver at one worker (MPI-only): the inline regions, the reused lists
// and the bodies bound at construction must add nothing to it.
func TestGhostExchangeAllocBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation baseline needs steady-state iterations")
	}
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	res := testing.Benchmark(func(b *testing.B) { benchGhostExchange(b, testConfig(), 4, 1) })
	if got := res.AllocsPerOp(); got > ghostExchangeAllocBaseline {
		t.Errorf("ghost exchange allocs/op = %d, want <= %d (sanitizer-off path must stay pooled)",
			got, ghostExchangeAllocBaseline)
	}
}

// TestPoolExchangeAllocsDoNotGrowWithTransfers guards the same path on the
// worker pool: a region costs its fork (a few objects per region, whatever
// its length), never an object per transfer, so an exchange of eight times
// the transfers between the same peers allocates no more.
func TestPoolExchangeAllocsDoNotGrowWithTransfers(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation baseline needs steady-state iterations")
	}
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	allocs := func(root [3]int) int64 {
		cfg := testConfig()
		cfg.RootBlocks = root
		return testing.Benchmark(func(b *testing.B) { benchGhostExchange(b, cfg, 2, 2) }).AllocsPerOp()
	}
	small, large := allocs([3]int{4, 4, 2}), allocs([3]int{8, 8, 4})
	if large > small {
		t.Errorf("pool ghost exchange allocs/op = %d on 256 blocks, %d on 32: they grow with the transfers",
			large, small)
	}
}

// TestDataFlowAllocsDoNotGrowWithBlocks guards the data-flow spawn path:
// task bodies are recycled job records and TAMPI recycles its bindings, so a
// drained round of the steady-state stages allocates a count that does not
// grow with the blocks, eight times as many here. With a closure per spawn
// it grew by one object per task, hundreds per round; the slack of a
// quarter is the free lists' high water, which a round may still raise now
// and then.
func TestDataFlowAllocsDoNotGrowWithBlocks(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation baseline needs steady-state iterations")
	}
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	allocs := func(root [3]int) int64 {
		cfg := testConfig()
		cfg.RootBlocks = root
		return testing.Benchmark(func(b *testing.B) { benchDataFlowStages(b, cfg, 2) }).AllocsPerOp()
	}
	small, large := allocs([3]int{4, 4, 2}), allocs([3]int{8, 8, 4})
	t.Logf("data-flow stage allocs/op: %d on 32 blocks, %d on 256", small, large)
	if large > small+small/4 {
		t.Errorf("data-flow stage allocs/op = %d on 256 blocks, %d on 32: they grow with the blocks",
			large, small)
	}
}
