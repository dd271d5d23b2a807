// Package hmc models a Hybrid Memory Cube following the HMC 2.0
// parameters in Table IV of the GraphPIM paper: an 8GB cube with 32 vaults
// of 16 DRAM banks each, tCL = tRCD = tRP = 13.75ns, tRAS = 27.5ns, and
// four SerDes links of 120GB/s each carrying 128-bit FLITs.
//
// The model is a latency oracle with resource bookkeeping: each request
// immediately computes its completion time from the current occupancy of
// the request link, the target bank, the vault's PIM functional units, and
// the response link, updating those occupancies as it goes. This captures
// the contention effects the paper studies (FU count, link bandwidth, bank
// conflicts) while staying fast and deterministic. The links and banks
// are the shared DRAM core of internal/mem/dram; the cube adds its vault
// mapping, Table V FLIT costs and PIM functional units.
package hmc

import (
	"fmt"
	"math/bits"

	"graphpim/internal/hmcatomic"
	"graphpim/internal/mem"
	"graphpim/internal/mem/dram"
	"graphpim/internal/memmap"
	"graphpim/internal/sim"
)

// Config describes one HMC cube.
type Config struct {
	// NumVaults is the vault count (32 for an 8GB cube).
	NumVaults int
	// BanksPerVault is the DRAM bank count per vault (16).
	BanksPerVault int

	// DRAM timing in nanoseconds.
	TRCDNs, TCLNs, TRPNs, TRASNs float64

	// NumLinks and LinkGBs describe the SerDes links (4 x 120GB/s).
	NumLinks int
	LinkGBs  float64
	// LinkBWScale scales total link bandwidth for the Fig. 13 sweep
	// (0.5 = half, 2 = double). Zero means 1.
	LinkBWScale float64
	// LinkLatency is the fixed one-way SerDes + traversal latency in
	// core cycles.
	LinkLatency uint64

	// IntFUsPerVault is the number of integer PIM functional units per
	// vault (Fig. 11 sweeps 1..16). FPFUsPerVault is the number of
	// floating-point units (the paper settles on 1).
	IntFUsPerVault int
	FPFUsPerVault  int

	// VaultInterleaveShift selects the address-to-vault interleaving
	// granularity: consecutive (64 << shift)-byte blocks map to the
	// same vault. Zero (the HMC default) interleaves single 64-byte
	// blocks across vaults for maximal parallelism.
	VaultInterleaveShift int
}

// DefaultConfig returns the Table IV HMC configuration.
func DefaultConfig() Config {
	return Config{
		NumVaults:      32,
		BanksPerVault:  16,
		TRCDNs:         13.75,
		TCLNs:          13.75,
		TRPNs:          13.75,
		TRASNs:         27.5,
		NumLinks:       4,
		LinkGBs:        120,
		LinkBWScale:    1,
		LinkLatency:    10,
		IntFUsPerVault: 16,
		FPFUsPerVault:  1,
	}
}

// cubeCounters holds pre-resolved stat handles for the per-request paths
// (see sim.Stats.Counter — no map lookups or string concatenation per
// request).
type cubeCounters struct {
	flitsReq, flitsRsp sim.Counter

	reads, writes     sim.Counter
	ucReads, ucWrites sim.Counter

	atomics    sim.Counter
	atomicByOp [hmcatomic.NumOps]sim.Counter
	fuBusy     sim.Counter
	fpFUBusy   sim.Counter
	fuQueue    sim.Counter
}

func resolveCubeCounters(stats *sim.Stats) cubeCounters {
	c := cubeCounters{
		flitsReq: stats.Counter("hmc.flits.req"),
		flitsRsp: stats.Counter("hmc.flits.rsp"),
		reads:    stats.Counter("hmc.reads"),
		writes:   stats.Counter("hmc.writes"),
		ucReads:  stats.Counter("hmc.uc.reads"),
		ucWrites: stats.Counter("hmc.uc.writes"),
		atomics:  stats.Counter("hmc.atomics"),
		fuBusy:   stats.Counter("hmc.fu.busy_cycles"),
		fpFUBusy: stats.Counter("hmc.fpfu.busy_cycles"),
		fuQueue:  stats.Counter("hmc.fu.queue_cycles"),
	}
	for op := 0; op < hmcatomic.NumOps; op++ {
		c.atomicByOp[op] = stats.Counter("hmc.atomic." + hmcatomic.Op(op).String())
	}
	return c
}

// Cube is one HMC device.
type Cube struct {
	cfg Config
	ctr cubeCounters

	// flitsPerCycle is the serialization rate of the aggregate link in
	// FLITs per core cycle, each direction.
	flitsPerCycle float64
	// vaultBits is the width of the vault field in VaultBank.
	vaultBits uint

	reqLink, rspLink *dram.Lane
	banks            *dram.Banks
	intFU            [][]uint64 // [vault][fu] next free cycle
	fpFU             [][]uint64
	// maxIntBusy is the most integer FUs of one vault still busy at an
	// integer op's dataReady (Slack).
	maxIntBusy int
}

// Validate reports the first out-of-range cube parameter as a
// descriptive error. New panics with it; PoolConfig.Validate wraps it.
func (c Config) Validate() error {
	if c.NumVaults <= 0 || c.BanksPerVault <= 0 {
		return fmt.Errorf("hmc: non-positive vault/bank count (%d vaults, %d banks)",
			c.NumVaults, c.BanksPerVault)
	}
	if c.NumVaults&(c.NumVaults-1) != 0 {
		return fmt.Errorf("hmc: vault count %d must be a power of two", c.NumVaults)
	}
	if c.BanksPerVault&(c.BanksPerVault-1) != 0 {
		return fmt.Errorf("hmc: bank count %d must be a power of two", c.BanksPerVault)
	}
	if c.IntFUsPerVault <= 0 {
		return fmt.Errorf("hmc: need at least one integer FU per vault (got %d)", c.IntFUsPerVault)
	}
	if c.FPFUsPerVault < 0 {
		return fmt.Errorf("hmc: negative FP FU count %d", c.FPFUsPerVault)
	}
	if c.TRCDNs <= 0 || c.TCLNs <= 0 || c.TRPNs <= 0 || c.TRASNs <= 0 {
		return fmt.Errorf("hmc: non-positive DRAM timing (tRCD=%g tCL=%g tRP=%g tRAS=%g)",
			c.TRCDNs, c.TCLNs, c.TRPNs, c.TRASNs)
	}
	if c.NumLinks <= 0 || c.LinkGBs <= 0 || c.LinkBWScale < 0 {
		return fmt.Errorf("hmc: non-positive link rate (%d links x %g GB/s, scale %g)",
			c.NumLinks, c.LinkGBs, c.LinkBWScale)
	}
	// The largest packet is a 64-byte line plus header: 5 FLITs.
	if err := dram.CheckLaneRate(c.flitsPerCycle(), hmcatomic.Write64Cost().Request); err != nil {
		return fmt.Errorf("hmc: link %w", err)
	}
	return nil
}

// flitsPerCycle is the serialization rate of the aggregate link in
// FLITs per core cycle, each direction. A zero LinkBWScale means 1.
func (c Config) flitsPerCycle() float64 {
	scale := c.LinkBWScale
	if scale == 0 {
		scale = 1
	}
	// Bytes per second across all links, one direction.
	bytesPerSec := c.LinkGBs * 1e9 * float64(c.NumLinks) * scale
	bytesPerCycle := bytesPerSec / (sim.CoreClockGHz * 1e9)
	return bytesPerCycle / hmcatomic.FlitBytes
}

// CanOffload reports whether the cube executes op in its vault logic:
// every HMC 2.0 atomic does; the FP extension additionally needs an FP
// functional unit in the vault.
func (c Config) CanOffload(op hmcatomic.Op) bool {
	return !hmcatomic.IsFloat(op) || c.FPFUsPerVault > 0
}

// New builds a Cube. It panics on a configuration Validate rejects.
func New(cfg Config, stats *sim.Stats) *Cube {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	if cfg.LinkBWScale == 0 {
		cfg.LinkBWScale = 1
	}
	c := &Cube{
		cfg:           cfg,
		ctr:           resolveCubeCounters(stats),
		flitsPerCycle: cfg.flitsPerCycle(),
		vaultBits:     uint(bits.TrailingZeros(uint(cfg.NumVaults))),
		banks: dram.NewBanks(stats, "hmc", cfg.NumVaults, cfg.BanksPerVault,
			dram.Timing{TRCDNs: cfg.TRCDNs, TCLNs: cfg.TCLNs, TRPNs: cfg.TRPNs, TRASNs: cfg.TRASNs}, false),
	}
	c.reqLink = dram.NewLane(c.flitsPerCycle)
	c.rspLink = dram.NewLane(c.flitsPerCycle)

	c.intFU = make([][]uint64, cfg.NumVaults)
	c.fpFU = make([][]uint64, cfg.NumVaults)
	for v := range c.intFU {
		c.intFU[v] = make([]uint64, cfg.IntFUsPerVault)
		if cfg.FPFUsPerVault > 0 {
			c.fpFU[v] = make([]uint64, cfg.FPFUsPerVault)
		}
	}
	return c
}

// VaultBank maps an address to its vault and bank. By default HMC
// interleaves consecutive 64-byte blocks across vaults, then banks,
// maximizing parallelism for streaming accesses; VaultInterleaveShift
// coarsens the granularity.
func (c *Cube) VaultBank(addr memmap.Addr) (vault, bank int) {
	block := uint64(addr) >> uint(6+c.cfg.VaultInterleaveShift)
	vault = int(block & uint64(c.cfg.NumVaults-1))
	bank = int((block >> c.vaultBits) & uint64(c.cfg.BanksPerVault-1))
	return
}

// sendRequest occupies the request link for flits FLITs starting no
// earlier than now and returns the cycle the packet arrives at the vault.
func (c *Cube) sendRequest(now uint64, flits int) uint64 {
	c.ctr.flitsReq.Add(uint64(flits))
	return c.reqLink.Reserve(now, flits) + c.cfg.LinkLatency
}

// sendResponse occupies the response link starting no earlier than ready
// and returns the cycle the packet reaches the host.
func (c *Cube) sendResponse(ready uint64, flits int) uint64 {
	c.ctr.flitsRsp.Add(uint64(flits))
	return c.rspLink.Reserve(ready, flits) + c.cfg.LinkLatency
}

// reserveBank reserves addr's bank starting no earlier than arrive,
// holding it for the RMW extension extra (0 for plain reads/writes), and
// returns the cycle at which data is available. Vault controllers run
// closed-page for irregular traffic, so every access activates its row
// and the row number is never read.
func (c *Cube) reserveBank(addr memmap.Addr, arrive, extra uint64) uint64 {
	v, b := c.VaultBank(addr)
	return c.banks.Access(v, b, 0, arrive, extra)
}

// ReadLine implements cache.Backend: a 64-byte line fill on the critical
// path. Returns latency relative to now.
func (c *Cube) ReadLine(lineAddr memmap.Addr, now uint64) uint64 {
	c.ctr.reads.Inc()
	cost := hmcatomic.Read64Cost()
	arrive := c.sendRequest(now, cost.Request)
	ready := c.reserveBank(lineAddr, arrive, 0)
	done := c.sendResponse(ready, cost.Response)
	return done - now
}

// WriteLine implements cache.Backend: a posted 64-byte writeback. The
// latency is off the critical path but the traffic and bank occupancy are
// modeled. Posted means exactly that: the request lane carries the 5
// FLITs of Table V's Write64 row and the bank is occupied for the write,
// but no acknowledgment packet crosses the response lane — nothing on
// the host side ever waits for one, so reserving response FLITs here
// double-counted response bandwidth and inflated `hmc.flits.rsp`.
func (c *Cube) WriteLine(lineAddr memmap.Addr, now uint64) {
	c.ctr.writes.Inc()
	arrive := c.sendRequest(now, hmcatomic.Write64Cost().Request)
	c.reserveBank(lineAddr, arrive, 0)
}

// UCRead is an uncacheable sub-line read (at most 16 bytes), used for
// non-atomic accesses to the PIM memory region. Returns latency.
func (c *Cube) UCRead(addr memmap.Addr, now uint64) uint64 {
	c.ctr.ucReads.Inc()
	cost := hmcatomic.UCReadCost()
	arrive := c.sendRequest(now, cost.Request)
	ready := c.reserveBank(addr, arrive, 0)
	done := c.sendResponse(ready, cost.Response)
	return done - now
}

// UCWrite is a posted uncacheable sub-line write. Returns the cycle at
// which the write is acknowledged (needed only for write-buffer drains).
func (c *Cube) UCWrite(addr memmap.Addr, now uint64) uint64 {
	c.ctr.ucWrites.Inc()
	cost := hmcatomic.UCWriteCost()
	arrive := c.sendRequest(now, cost.Request)
	ready := c.reserveBank(addr, arrive, 0)
	done := c.sendResponse(ready, cost.Response)
	return done
}

// Atomic times op at addr as a PIM operation in the vault logic die
// (see mem.Backend.Atomic; imm is ignored).
func (c *Cube) Atomic(op hmcatomic.Op, addr memmap.Addr, _ hmcatomic.Value, now uint64) mem.AtomicTiming {
	c.ctr.atomics.Inc()
	c.ctr.atomicByOp[op].Inc()
	cost := hmcatomic.AtomicCost(op)

	arrive := c.sendRequest(now, cost.Request)
	fuLat := hmcatomic.FULatencyCycles(op)

	// The bank is locked for the whole RMW: activate, read, FU op,
	// write back, precharge.
	v, _ := c.VaultBank(addr)
	dataReady := c.reserveBank(addr, arrive, fuLat)

	// Claim a functional unit; the op starts when both the data and an
	// FU are available.
	pool := c.intFU[v]
	busy := c.ctr.fuBusy
	fp := hmcatomic.IsFloat(op)
	if fp {
		if len(c.fpFU[v]) == 0 {
			// No FP unit: the machine layer should not have offloaded
			// this; treat as a modeling error.
			panic(fmt.Sprintf("hmc: FP atomic %v offloaded but vault has no FP FU", op))
		}
		pool = c.fpFU[v]
		busy = c.ctr.fpFUBusy
	}
	fuIdx, inUse := 0, 0
	for i, free := range pool {
		if free < pool[fuIdx] {
			fuIdx = i
		}
		if free > dataReady {
			inUse++
		}
	}
	if !fp && inUse > c.maxIntBusy {
		c.maxIntBusy = inUse
	}
	opStart := max(dataReady, pool[fuIdx])
	opDone := opStart + fuLat
	pool[fuIdx] = opDone
	busy.Add(fuLat)
	if wait := opStart - dataReady; wait > 0 {
		c.ctr.fuQueue.Add(wait)
	}

	return mem.AtomicTiming{
		Accepted:   max(now+2, arrive-c.cfg.LinkLatency),
		ResponseAt: c.sendResponse(opDone, cost.Response),
	}
}

// Slack is a replay's certificate of how much of the cube's integer
// FUs and links it used, from which Admits proves that a cube with
// another FU count or link scale would have served the same request
// sequence cycle for cycle.
type Slack struct {
	// MaxIntFUsBusy is the most integer FUs of one vault still busy
	// at an integer op's dataReady. An op waits for an FU exactly when
	// every FU of its vault is busy then.
	MaxIntFUsBusy int
	// Links certifies both link directions.
	Links dram.LaneSlack
}

// Slack returns the cube's certificate of every request served so far.
func (c *Cube) Slack() Slack {
	return Slack{
		MaxIntFUsBusy: c.maxIntBusy,
		Links:         c.reqLink.Slack().Merge(c.rspLink.Slack()),
	}
}

// Merge returns the certificate of s's and o's requests together, for
// cubes of one configuration.
func (s Slack) Merge(o Slack) Slack {
	return Slack{MaxIntFUsBusy: max(s.MaxIntFUsBusy, o.MaxIntFUsBusy), Links: s.Links.Merge(o.Links)}
}

// Family returns c with the knobs a Slack can vouch for zeroed: the
// integer FU count and the link scale.
func (c Config) Family() Config {
	c.IntFUsPerVault, c.LinkBWScale = 0, 0
	return c
}

// Admits reports whether a cube configured as to serves the request
// sequence that a cube configured as from served with slack s, and
// returns the same cycle for every request. The two must be of one
// Family, and to must validate.
//
// The FU part holds trivially for an equal count. Otherwise: an op
// claims the FU that frees first and holds it until its start plus
// latency. While no op waits, a vault of m FUs therefore holds the m
// latest free times of a larger vault's, so the FUs busy at a dataReady
// number min(m, busy) on it. No op waited at from's count and none
// finds all of to's busy, so every op starts at its dataReady on both.
// The link part is dram.LaneSlack.Admits. Every other part of a
// request's timing reads only the request, so by induction over the
// sequence the two cubes agree on every return value.
func (s Slack) Admits(from, to Config) bool {
	fus := from.IntFUsPerVault == to.IntFUsPerVault ||
		s.MaxIntFUsBusy < from.IntFUsPerVault && s.MaxIntFUsBusy < to.IntFUsPerVault
	return fus && from.Family() == to.Family() && to.Validate() == nil &&
		s.Links.Admits(from.flitsPerCycle(), to.flitsPerCycle())
}
