//go:build race

package simnet

// raceEnabled reports that the race detector is active; it defeats
// sync.Pool reuse (items are dropped at random to expose races), so
// allocation-count assertions are skipped.
const raceEnabled = true
