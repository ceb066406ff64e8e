//go:build race

package dist

// raceEnabled reports a build under the race detector, whose instrumentation
// allocates: allocation ceilings hold only without it.
const raceEnabled = true
