//go:build !race

package equiv_test

const raceEnabled = false
