package task

import (
	"testing"

	"miniamr/internal/allocguard"
)

// TestAllocBudgets is the runtime's allocation table: spawning, retiring and
// waiting on tasks recycles their records, so in the steady state none of
// these calls allocates. A task body passed to Spawn is the caller's, and
// the callers' tables (driver, amr/app, hydro) guard those.
func TestAllocBudgets(t *testing.T) {
	rt := MustNewRuntime(Options{Workers: 2})
	defer rt.Shutdown()
	first := rt.Reserve(1)
	write := []Access{{Region: first, Mode: ModeInOut}}
	read := []Access{{Region: first, Mode: ModeIn}}
	allocguard.Check(t, []allocguard.Row{
		{"Spawn+Wait, no accesses", 0, func() { rt.Spawn("t", nop); rt.Wait() }},
		{"Spawn+Wait, a chain of two", 0, func() {
			rt.Spawn("t", nop, write...)
			rt.Spawn("t", nop, write...)
			rt.Wait()
		}},
		// A writer releasing eight readers outgrows the successor list's
		// inline array; the grown list stays with the record.
		{"Spawn+Wait, a writer and 8 readers", 0, func() {
			rt.Spawn("w", nop, write...)
			for i := 0; i < 8; i++ {
				rt.Spawn("r", nop, read...)
			}
			rt.Wait()
		}},
		{"Spawn+WaitAccess", 0, func() {
			rt.Spawn("w", nop, write...)
			rt.WaitAccess(read...)
		}},
	})
}
