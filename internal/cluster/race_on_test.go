//go:build race

package cluster

// raceEnabled lets timing assertions stand down under the race detector,
// which slows goroutine hand-offs several-fold.
const raceEnabled = true
