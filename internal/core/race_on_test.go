//go:build race

package core_test

// raceEnabled lets allocation-counting tests skip under -race: the race
// runtime instruments allocation itself, so AllocsPerRun is meaningless.
const raceEnabled = true
