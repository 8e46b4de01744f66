//go:build race

package core

// raceEnabled skips allocation-accounting tests: the race detector's
// instrumentation allocates on its own behalf.
const raceEnabled = true
