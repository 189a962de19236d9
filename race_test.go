//go:build race

package parclass

// raceEnabled reports a -race build, where sync.Pool drops items at random
// so allocation counts of pooled paths are not meaningful.
const raceEnabled = true
