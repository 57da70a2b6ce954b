//go:build race

package transport

// raceEnabled reports that this binary runs under the race detector,
// where sync.Pool deliberately drops a fraction of Puts to shake out
// misuse — making allocation counts on pooled paths nondeterministic.
const raceEnabled = true
