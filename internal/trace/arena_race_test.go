//go:build race

package trace

// raceBuild shortens the single-goroutine identity runs under the race
// detector, which has nothing to check in them.
const raceBuild = true
