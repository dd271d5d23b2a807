package hmc

import (
	"fmt"

	"graphpim/internal/hmcatomic"
)

// Sanitizer support: the cube keeps several redundant views of the same
// traffic — aggregate FLIT counters next to per-request reservations,
// FU busy-cycle counters next to per-FU horizon arrays, per-epoch link
// budgets next to the configured bandwidth, row-buffer outcomes next to
// the per-request counters. Audit cross-checks them.
// All methods are read-only so an audited run is byte-identical to an
// unaudited one.

// maxHorizon returns the latest next-free cycle across a [vault][unit]
// reservation table.
func maxHorizon(table [][]uint64) uint64 {
	var m uint64
	for _, row := range table {
		for _, t := range row {
			if t > m {
				m = t
			}
		}
	}
	return m
}

// auditFlitConservation recomputes the aggregate FLIT counters from the
// per-kind request counters and Table V costs. Every send path
// increments exactly one kind counter and reserves exactly that kind's
// cost, so equality must hold at any quiescent point.
func (c *Cube) auditFlitConservation() error {
	reads := c.ctr.reads.Value()
	writes := c.ctr.writes.Value()
	ucReads := c.ctr.ucReads.Value()
	ucWrites := c.ctr.ucWrites.Value()

	rd, wr := hmcatomic.Read64Cost(), hmcatomic.Write64Cost()
	ucr, ucw := hmcatomic.UCReadCost(), hmcatomic.UCWriteCost()
	wantReq := reads*uint64(rd.Request) +
		writes*uint64(wr.Request) +
		ucReads*uint64(ucr.Request) +
		ucWrites*uint64(ucw.Request)
	// Posted writebacks elicit no response packet (see WriteLine), so
	// writes contribute nothing to the response lane.
	wantRsp := reads*uint64(rd.Response) +
		ucReads*uint64(ucr.Response) +
		ucWrites*uint64(ucw.Response)
	var atomics uint64
	for op := 0; op < hmcatomic.NumOps; op++ {
		n := c.ctr.atomicByOp[op].Value()
		atomics += n
		cost := hmcatomic.AtomicCost(hmcatomic.Op(op))
		wantReq += n * uint64(cost.Request)
		wantRsp += n * uint64(cost.Response)
	}
	if total := c.ctr.atomics.Value(); total != atomics {
		return fmt.Errorf("hmc.atomics = %d but per-op counters sum to %d", total, atomics)
	}
	if got := c.ctr.flitsReq.Value(); got != wantReq {
		return fmt.Errorf("hmc.flits.req = %d but per-request costs sum to %d (reads=%d writes=%d uc=%d/%d atomics=%d)",
			got, wantReq, reads, writes, ucReads, ucWrites, atomics)
	}
	if got := c.ctr.flitsRsp.Value(); got != wantRsp {
		return fmt.Errorf("hmc.flits.rsp = %d but per-request costs sum to %d (reads=%d uc=%d/%d atomics=%d)",
			got, wantRsp, reads, ucReads, ucWrites, atomics)
	}
	return nil
}

// auditFU cross-checks the FU busy-cycle counters two ways: exactly
// against the per-op atomic counts times each op's fixed FU latency, and
// as an occupancy bound — total busy time cannot exceed the number of
// units times the furthest reservation horizon (reservations may extend
// past now, so the horizon, not now, is the bound).
func (c *Cube) auditFU(now uint64, totalIntFU, totalFPFU int, intBusy, fpBusy uint64) error {
	var wantInt, wantFP uint64
	for op := 0; op < hmcatomic.NumOps; op++ {
		n := c.ctr.atomicByOp[op].Value()
		lat := hmcatomic.FULatencyCycles(hmcatomic.Op(op))
		if hmcatomic.IsFloat(hmcatomic.Op(op)) {
			wantFP += n * lat
		} else {
			wantInt += n * lat
		}
	}
	if intBusy != wantInt {
		return fmt.Errorf("hmc.fu.busy_cycles = %d but per-op latencies sum to %d", intBusy, wantInt)
	}
	if fpBusy != wantFP {
		return fmt.Errorf("hmc.fpfu.busy_cycles = %d but per-op latencies sum to %d", fpBusy, wantFP)
	}
	if horizon := max(now, maxHorizon(c.intFU)); intBusy > horizon*uint64(totalIntFU) {
		return fmt.Errorf("hmc.fu.busy_cycles = %d exceeds %d FUs x horizon %d", intBusy, totalIntFU, horizon)
	}
	if horizon := max(now, maxHorizon(c.fpFU)); totalFPFU > 0 && fpBusy > horizon*uint64(totalFPFU) {
		return fmt.Errorf("hmc.fpfu.busy_cycles = %d exceeds %d FUs x horizon %d", fpBusy, totalFPFU, horizon)
	}
	return nil
}

// Audit runs every HMC invariant across the chain. Counters are shared
// by all cubes in the pool, so the conservation identities are checked
// once (they hold for the aggregate), while per-cube resource state
// (link-lane budgets, FU horizons) is checked per cube.
func (p *Pool) Audit(now uint64) error {
	for i, c := range p.cubes {
		if err := c.reqLink.Audit(); err != nil {
			return fmt.Errorf("cube %d request lane: %w", i, err)
		}
		if err := c.rspLink.Audit(); err != nil {
			return fmt.Errorf("cube %d response lane: %w", i, err)
		}
	}
	c0 := p.cubes[0]
	if err := c0.auditFlitConservation(); err != nil {
		return err
	}
	// Every read, write, UC access and atomic makes one bank access.
	ctr := c0.ctr
	if err := c0.banks.Audit(ctr.reads.Value() + ctr.writes.Value() +
		ctr.ucReads.Value() + ctr.ucWrites.Value() + ctr.atomics.Value()); err != nil {
		return err
	}
	// FU occupancy bound must account for every unit in the chain; the
	// exact busy-cycle identity is aggregate.
	totalInt, totalFP := 0, 0
	horizon := now
	for _, c := range p.cubes {
		totalInt += c.cfg.NumVaults * c.cfg.IntFUsPerVault
		totalFP += c.cfg.NumVaults * c.cfg.FPFUsPerVault
		horizon = max(horizon, maxHorizon(c.intFU), maxHorizon(c.fpFU))
	}
	return c0.auditFU(horizon, totalInt, totalFP, c0.ctr.fuBusy.Value(), c0.ctr.fpFUBusy.Value())
}

// CorruptLinkLaneForTest over-reserves one request-lane epoch on the
// first cube so fault-injection tests can prove the lane audit catches
// budget violations. Test-only; never call from simulation code.
func (p *Pool) CorruptLinkLaneForTest() { p.cubes[0].reqLink.CorruptForTest() }
