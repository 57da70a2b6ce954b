//go:build !race

package stableleader

// RaceEnabled: see race_enabled_test.go.
const RaceEnabled = false
