//go:build race

package core

// raceEnabled reports a -race build. Its simulation runs an order of
// magnitude slower, so the longest differential test keeps only its
// shortest workload there; the full grid runs in the plain test build.
const raceEnabled = true
