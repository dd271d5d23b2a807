package hmc

import (
	"fmt"

	"graphpim/internal/hmcatomic"
	"graphpim/internal/mem"
	"graphpim/internal/memmap"
	"graphpim/internal/sim"
)

// Pool models a chain of HMC cubes and is the HMC memory backend: it
// implements mem.Backend, and PoolConfig implements mem.Config. The HMC
// specification supports chaining up to eight cubes off one host link
// complex; capacity scales linearly while requests to non-adjacent cubes
// pay pass-through hops in the chain. GraphPIM's offloading works
// unchanged — each cube's logic layer executes the PIM atomics for the
// addresses it owns — but far cubes see higher round-trip latency, which
// the ext-multi-cube experiment quantifies.
type Pool struct {
	cubes []*Cube
	// interleaveShift selects the cube-interleaving granularity:
	// consecutive (64 << shift)-byte blocks map to the same cube.
	interleaveShift int
	// hopLatency is the extra one-way latency per pass-through cube.
	hopLatency uint64
	mask       uint64
}

// PoolConfig configures a cube chain.
type PoolConfig struct {
	// Cubes is the chain length (power of two, 1..8).
	Cubes int
	// Cube is the per-cube configuration.
	Cube Config
	// InterleaveShift sets the cube-interleaving granularity in
	// (64 << shift)-byte blocks; the default 6 interleaves 4KB pages.
	InterleaveShift int
	// HopLatencyCycles is the pass-through latency per chained cube
	// each way.
	HopLatencyCycles uint64
}

// DefaultPoolConfig returns a chain of n cubes with Table IV cubes.
func DefaultPoolConfig(n int) PoolConfig {
	return PoolConfig{
		Cubes:            n,
		Cube:             DefaultConfig(),
		InterleaveShift:  6, // 4KB pages
		HopLatencyCycles: 12,
	}
}

// Kind implements mem.Config.
func (c PoolConfig) Kind() string { return "hmc" }

// Validate implements mem.Config: the chain length, then the cube.
func (c PoolConfig) Validate() error {
	if c.Cubes < 1 || c.Cubes > 8 || c.Cubes&(c.Cubes-1) != 0 {
		return fmt.Errorf("hmc: chain length %d must be a power of two in 1..8", c.Cubes)
	}
	return c.Cube.Validate()
}

// New implements mem.Config.
func (c PoolConfig) New(stats *sim.Stats) mem.Backend { return NewPool(c, stats) }

// CanOffload implements mem.Config (see Config.CanOffload).
func (c PoolConfig) CanOffload(op hmcatomic.Op) bool { return c.Cube.CanOffload(op) }

// CanOffloadBundle implements mem.Config: the cube's PIM units are
// fixed-function, so it has no bundle tier.
func (c PoolConfig) CanOffloadBundle() bool { return false }

// NewPool builds the chain. Each cube gets its own stats-sharing Cube
// model (links, vaults, banks, FUs are all per-cube resources). It
// panics on a configuration Validate rejects.
func NewPool(cfg PoolConfig, stats *sim.Stats) *Pool {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	p := &Pool{
		interleaveShift: cfg.InterleaveShift,
		hopLatency:      cfg.HopLatencyCycles,
		mask:            uint64(cfg.Cubes - 1),
	}
	for i := 0; i < cfg.Cubes; i++ {
		p.cubes = append(p.cubes, New(cfg.Cube, stats))
	}
	return p
}

// Slack merges every cube's certificate (see Slack.Admits).
func (p *Pool) Slack() Slack {
	var s Slack
	for _, c := range p.cubes {
		s = s.Merge(c.Slack())
	}
	return s
}

// CubeFor returns the chain position owning addr.
func (p *Pool) CubeFor(addr memmap.Addr) int {
	return int((uint64(addr) >> uint(6+p.interleaveShift)) & p.mask)
}

// hops returns the extra round-trip latency to reach cube i.
func (p *Pool) hops(i int) uint64 {
	return 2 * uint64(i) * p.hopLatency
}

// ReadLine implements mem.Backend across the chain.
func (p *Pool) ReadLine(lineAddr memmap.Addr, now uint64) uint64 {
	i := p.CubeFor(lineAddr)
	return p.cubes[i].ReadLine(lineAddr, now+uint64(i)*p.hopLatency) + p.hops(i)
}

// WriteLine implements mem.Backend across the chain.
func (p *Pool) WriteLine(lineAddr memmap.Addr, now uint64) {
	i := p.CubeFor(lineAddr)
	p.cubes[i].WriteLine(lineAddr, now+uint64(i)*p.hopLatency)
}

// UCRead routes an uncacheable read to its owning cube.
func (p *Pool) UCRead(addr memmap.Addr, now uint64) uint64 {
	i := p.CubeFor(addr)
	return p.cubes[i].UCRead(addr, now+uint64(i)*p.hopLatency) + p.hops(i)
}

// UCWrite routes an uncacheable write to its owning cube.
func (p *Pool) UCWrite(addr memmap.Addr, now uint64) uint64 {
	i := p.CubeFor(addr)
	return p.cubes[i].UCWrite(addr, now+uint64(i)*p.hopLatency) + p.hops(i)
}

// CanOffload implements mem.Backend (see Config.CanOffload).
func (p *Pool) CanOffload(op hmcatomic.Op) bool { return p.cubes[0].cfg.CanOffload(op) }

// Atomic routes a PIM atomic to its owning cube's logic layer.
func (p *Pool) Atomic(op hmcatomic.Op, addr memmap.Addr, imm hmcatomic.Value, now uint64) mem.AtomicTiming {
	i := p.CubeFor(addr)
	t := p.cubes[i].Atomic(op, addr, imm, now+uint64(i)*p.hopLatency)
	t.ResponseAt += uint64(i) * p.hopLatency
	return t
}
