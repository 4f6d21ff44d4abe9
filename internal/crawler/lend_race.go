//go:build race

package crawler

// A race-detector build scribbles over every iteration RunChains lends
// once its visit returns, so the race suite runs every lending fold
// against records a consumer must not have kept.
func init() { scribbleLent.Store(true) }
