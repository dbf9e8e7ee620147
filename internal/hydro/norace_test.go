//go:build !race

package hydro

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
