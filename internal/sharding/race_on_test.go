//go:build race

package sharding

// raceEnabled lets allocation-counting tests skip under -race: the race
// runtime instruments allocation itself, so AllocsPerRun is meaningless.
const raceEnabled = true
