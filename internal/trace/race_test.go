//go:build race

package trace

// The race detector makes sync.Pool drop a random quarter of its Puts,
// so allocation counts that rely on pooling are not checked under it.
func init() { raceEnabled = true }
