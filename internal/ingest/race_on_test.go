//go:build race

package ingest

// raceEnabled reports whether the race detector instruments this build.
// sync.Pool intentionally drops items under the race detector, so
// allocation-count pins are meaningless in race builds.
const raceEnabled = true
