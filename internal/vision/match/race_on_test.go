//go:build race

package match

// raceEnabled skips allocation-accounting tests: the race detector's
// instrumentation allocates on its own behalf.
const raceEnabled = true
