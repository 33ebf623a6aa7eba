//go:build !race

package diembft_test

const raceEnabled = false
