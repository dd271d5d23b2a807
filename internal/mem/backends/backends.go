// Package backends is the fixed list of built-in memory backends, in
// the order CLI listings, error messages and the cross-backend matrix
// present them: hmc, then the channel backend's rows ddr, lpddr, vault.
package backends

import (
	"graphpim/internal/hmc"
	"graphpim/internal/mem"
	"graphpim/internal/mem/channel"
)

// defaults returns each kind's default configuration, in list order.
func defaults() []mem.Config {
	out := []mem.Config{hmc.DefaultPoolConfig(1)}
	for _, c := range channel.Rows() {
		out = append(out, c)
	}
	return out
}

// Kinds returns every backend kind in list order.
func Kinds() []string {
	var out []string
	for _, c := range defaults() {
		out = append(out, c.Kind())
	}
	return out
}

// DefaultConfig returns kind's default configuration, or false when the
// kind is unknown.
func DefaultConfig(kind string) (mem.Config, bool) {
	for _, c := range defaults() {
		if c.Kind() == kind {
			return c, true
		}
	}
	return nil, false
}
