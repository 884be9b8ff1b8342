//go:build race

package pugz

// raceEnabled reports a -race build: wall-time assertions are off.
const raceEnabled = true
