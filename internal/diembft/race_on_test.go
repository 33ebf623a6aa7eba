//go:build race

package diembft_test

// raceEnabled: the race detector drops sync.Pool items at random (the QC
// cache's encoding scratch is pooled), so exact allocation counts on the
// signature arm hold only without it.
const raceEnabled = true
