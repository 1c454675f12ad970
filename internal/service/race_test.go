//go:build race

package service

// raceEnabled reports a -race build, whose sync.Pool drops items at
// random: allocation counts then measure the detector, not the code.
const raceEnabled = true
