//go:build !race

package dataio

const raceEnabled = false
