// Package backends is the fixed list of built-in memory backends, in
// the order CLI listings, error messages and the cross-backend matrix
// present them: hmc, ddr, lpddr, vault.
package backends

import (
	"graphpim/internal/hmc"
	"graphpim/internal/mem"
	"graphpim/internal/mem/ddr"
	"graphpim/internal/mem/lpddr"
	"graphpim/internal/mem/vault"
)

// defaults holds each kind's default configuration, in list order.
var defaults = []func() mem.Config{
	func() mem.Config { return hmc.DefaultPoolConfig(1) },
	func() mem.Config { return ddr.DefaultConfig() },
	func() mem.Config { return lpddr.DefaultConfig() },
	func() mem.Config { return vault.DefaultConfig() },
}

// Kinds returns every backend kind in list order.
func Kinds() []string {
	out := make([]string, len(defaults))
	for i, def := range defaults {
		out[i] = def().Kind()
	}
	return out
}

// DefaultConfig returns kind's default configuration, or false when the
// kind is unknown.
func DefaultConfig(kind string) (mem.Config, bool) {
	for _, def := range defaults {
		if c := def(); c.Kind() == kind {
			return c, true
		}
	}
	return nil, false
}
