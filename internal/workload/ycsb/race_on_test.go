//go:build race

package ycsb

// raceEnabled reports a race-detector build. TestGridAllocBound skips
// there: it checks no concurrency and runs ten times slower.
const raceEnabled = true
