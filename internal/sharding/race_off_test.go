//go:build !race

package sharding

const raceEnabled = false
