//go:build !race

package parclass

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
