//go:build race

package chord

// See race_off_test.go.
const raceEnabled = true
