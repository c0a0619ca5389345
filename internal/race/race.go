//go:build race

// Package race reports whether the race detector is compiled in, for
// the tests that pin allocation counts: under it sync.Pool drops a share
// of what is put into it and escape analysis differs, so the counts are
// not the steady state's.
package race

// Enabled is true in a -race build.
const Enabled = true
