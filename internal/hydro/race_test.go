//go:build race

package hydro

// raceEnabled reports whether the race detector is compiled in; alloc
// baselines are skipped under it (instrumentation allocates).
const raceEnabled = true
