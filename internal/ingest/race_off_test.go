//go:build !race

package ingest

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
