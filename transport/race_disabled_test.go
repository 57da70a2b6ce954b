//go:build !race

package transport

// raceEnabled: see race_enabled_test.go.
const raceEnabled = false
