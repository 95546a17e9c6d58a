//go:build race

package core

// raceEnabled gates the one test whose count the race detector perturbs.
const raceEnabled = true
