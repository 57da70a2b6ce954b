//go:build race

package core

// raceEnabled reports that this binary runs under the race detector, where
// sync.Pool drops Puts at random and allocation counts mean nothing.
const raceEnabled = true
