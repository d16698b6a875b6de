//go:build race

package testutil

// RaceEnabled reports whether the binary was built with -race. The race
// detector drops sync.Pool items at random, so allocation guards over
// pooled paths skip under it.
const RaceEnabled = true
