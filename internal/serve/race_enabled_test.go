//go:build race

package serve

// raceEnabled reports that this build runs under the race detector,
// whose instrumentation slows a solve ten-fold: numerical sweeps run
// their -short rows there.
const raceEnabled = true
