package hmcbackend

import (
	"testing"

	"graphpim/internal/hmcatomic"
	"graphpim/internal/mem"
	"graphpim/internal/sim"
)

// TestCanOffload pins the capability surface: all HMC 2.0 commands
// always offload; the FP extension commands need an FP FU in the vault.
func TestCanOffload(t *testing.T) {
	withFP := DefaultConfig(1).New(sim.NewStats())
	noFPCfg := DefaultConfig(1)
	noFPCfg.Cube.FPFUsPerVault = 0
	noFP := noFPCfg.New(sim.NewStats())
	for _, op := range hmcatomic.AllOps() {
		if !withFP.CanOffload(op) {
			t.Errorf("default cube refuses %v", op)
		}
		if got, want := noFP.CanOffload(op), !hmcatomic.IsFloat(op); got != want {
			t.Errorf("FP-less cube CanOffload(%v) = %v, want %v", op, got, want)
		}
	}
}

// TestConfigValidate exercises each rejected geometry.
func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(2)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Cubes = 0 },
		func(c *Config) { c.Cubes = 3 },
		func(c *Config) { c.Cubes = 16 },
		func(c *Config) { c.Cube.NumVaults = 0 },
		func(c *Config) { c.Cube.NumVaults = 24 },
		func(c *Config) { c.Cube.BanksPerVault = 3 },
		func(c *Config) { c.Cube.IntFUsPerVault = 0 },
		func(c *Config) { c.Cube.FPFUsPerVault = -1 },
		func(c *Config) { c.Cube.TRASNs = 0 },
		func(c *Config) { c.Cube.NumLinks = 0 },
		func(c *Config) { c.Cube.LinkGBs = -1 },
		func(c *Config) { c.Cube.LinkBWScale = -1 },
		func(c *Config) { c.Cube.LinkBWScale = 0.01 },
	}
	for i, mutate := range bad {
		c := DefaultConfig(2)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d: invalid config accepted", i)
		}
	}
}

// TestCounterNames pins the hmc names the alias table declares, the
// ones the machine's stat audits and report layers read.
func TestCounterNames(t *testing.T) {
	n := mem.Names(DefaultConfig(1).Kind())
	if n.Reads != "hmc.reads" || n.Writes != "hmc.writes" ||
		n.UCReads != "hmc.uc.reads" || n.UCWrites != "hmc.uc.writes" || n.Atomics != "hmc.atomics" {
		t.Fatalf("unexpected counter names: %+v", n)
	}
}
