//go:build race

package solver

const raceEnabled = true
