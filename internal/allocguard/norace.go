//go:build !race

package allocguard

const raceEnabled = false
