//go:build race

package core

// raceEnabled reports a -race build, whose sync.Pool drops a share of Puts
// at random, so a run's allocated bytes vary with the draw.
const raceEnabled = true
