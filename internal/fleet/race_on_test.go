//go:build race

package fleet

// raceEnabled reports whether the race detector is compiled in; the
// allocation pin skips under it because race instrumentation allocates.
const raceEnabled = true
