//go:build race

package stableleader

// RaceEnabled reports that this binary runs under the race detector —
// the mode the race hammers exist for, and one in which sync.Pool drops
// a share of its Puts on purpose, so allocation assertions over pooled
// paths do not hold. Declared in the internal test package so internal
// and external tests share it. Same convention as
// internal/subs/race_enabled_test.go.
const RaceEnabled = true
