//go:build race

package maan

// See race_off_test.go.
const raceEnabled = true
