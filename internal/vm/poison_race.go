//go:build race

package vm

// poisonOnFree: under the race detector Free overwrites a page before
// listing it, so any test that reads a frame after giving up its last
// reference sees 0xDB bytes instead of plausible stale data. It is an
// assertion compiled into the race leg, not a mode.
const poisonOnFree = true
