package machine

import (
	"strings"
	"testing"

	"graphpim/internal/hmc"
	"graphpim/internal/mem/ddr"
)

// TestValidateAcceptsShippedConfigs: every configuration the package
// constructs must pass its own validation.
func TestValidateAcceptsShippedConfigs(t *testing.T) {
	for _, cfg := range []Config{Baseline(), GraphPIM(false), GraphPIM(true), UPEI(false), UPEI(true)} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
		for _, cubes := range []int{0, 1, 2, 4, 8} {
			c := cfg
			c.HMCCubes = cubes
			if err := c.Validate(); err != nil {
				t.Errorf("%s cubes=%d: %v", cfg.Name, cubes, err)
			}
		}
	}
	ddrCfg := Baseline()
	ddrCfg.Mem = ddr.DefaultConfig()
	if err := ddrCfg.Validate(); err != nil {
		t.Errorf("DDR-backed baseline: %v", err)
	}
}

// TestValidateRejectsPerField pins one rejection per validated field,
// including that the error message names the offending field.
func TestValidateRejectsPerField(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string // substring of the error
	}{
		{"zero cores", func(c *Config) { c.NumCores = 0 }, "NumCores"},
		{"too many cores", func(c *Config) { c.NumCores = 64 }, "32-core"},
		{"zero issue width", func(c *Config) { c.CPU.IssueWidth = 0 }, "issue width"},
		{"line size not pow2", func(c *Config) { c.Cache.LineSize = 48 }, "line size"},
		{"zero L1 ways", func(c *Config) { c.Cache.L1Ways = 0 }, "L1"},
		{"L2 size not multiple", func(c *Config) { c.Cache.L2Size += 64 }, "L2"},
		{"L3 sets not pow2", func(c *Config) { c.Cache.L3Size *= 3 }, "L3"},
		{"17-way L3", func(c *Config) { c.Cache.L3Ways, c.Cache.L3Size = 17, 17*64*1024 }, "L3 associativity 17"},
		{"cubes not pow2", func(c *Config) { c.HMCCubes = 3 }, "HMCCubes"},
		{"cubes too many", func(c *Config) { c.HMCCubes = 16 }, "HMCCubes"},
		{"bad vault count", func(c *Config) { c.HMC.NumVaults = 0 }, "vault"},
		{"bad explicit backend", func(c *Config) {
			hc := hmc.DefaultPoolConfig(1)
			hc.Cube.BanksPerVault = 3
			c.Mem = hc
		}, "bank"},
		{"bad ddr backend", func(c *Config) {
			dc := ddr.DefaultConfig()
			dc.Channels = 5
			c.Mem = dc
		}, "channel"},
		{"HMC link too slow for a line", func(c *Config) { c.HMC.LinkBWScale = 0.01 }, "epoch budget"},
		{"ddr bus too slow for a burst", func(c *Config) {
			dc := ddr.DefaultConfig()
			dc.ChannelGBs = 1
			c.Mem = dc
		}, "epoch budget"},
	}
	for _, tc := range cases {
		cfg := Baseline()
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
			continue
		}
		if !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(tc.want)) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestNewPanicsOnInvalidConfig pins that library misuse fails loudly at
// construction, not mid-run.
func TestNewPanicsOnInvalidConfig(t *testing.T) {
	sp, tr := synthWorkload(1, 10, 1<<10, 1)
	cfg := Baseline()
	cfg.NumCores = 0
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted an invalid config")
		}
	}()
	NewSource(cfg, sp, tr)
}
