//go:build !race

package maan

// raceEnabled mirrors the build's -race flag so allocation tests can
// skip themselves: the race runtime instruments allocations and makes
// AllocsPerRun counts meaningless.
const raceEnabled = false
