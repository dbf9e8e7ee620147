// Package allocguard runs the allocation budget tables of the hot
// packages: each has one TestAllocBudgets in its alloc_guard_test.go whose
// rows are steady-state calls, measured with testing.AllocsPerRun and
// failed when they allocate more heap objects than their budget. The
// readings print under -v, one line a row.
package allocguard

import "testing"

// Row is one guarded call: its name, the heap objects one call may
// allocate, and the call, whose warm-up run AllocsPerRun leaves unmeasured.
// It is an unnamed struct type, so the tables may list it unkeyed.
type Row = struct {
	Name   string
	Budget float64
	Call   func()
}

// runs is how often AllocsPerRun repeats a call; it averages over them.
const runs = 100

// Check measures every row, logs its reading and fails the rows above
// budget. It skips under -short, and under -race, whose instrumentation
// perturbs the counts.
func Check(t *testing.T, rows []Row) {
	t.Helper()
	if testing.Short() {
		t.Skip("allocation budgets need steady-state iterations")
	}
	if raceEnabled {
		t.Skip("race instrumentation perturbs allocation counts")
	}
	for _, r := range rows {
		got := testing.AllocsPerRun(runs, r.Call)
		t.Logf("%-40s %5.1f allocs/call (budget %g)", r.Name, got, r.Budget)
		if got > r.Budget {
			t.Errorf("%s: %.1f allocs/call, budget %g", r.Name, got, r.Budget)
		}
	}
}
