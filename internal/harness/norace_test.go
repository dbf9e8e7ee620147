//go:build !race

package harness

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
