//go:build race

package server

// raceEnabled reports a -race build, in which sync.Pool drops items at
// random, so allocation counts of pooled paths are not reproducible.
const raceEnabled = true
