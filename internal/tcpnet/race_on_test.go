//go:build race

package tcpnet

// raceEnabled: the race detector drops sync.Pool items at random, so exact
// allocation counts hold only without it.
const raceEnabled = true
