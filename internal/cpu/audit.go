package cpu

import "fmt"

// Sanitizer support. The core keeps redundant state in three places:
// the timeq bags track their minimum incrementally next to the backing
// buffer, the retired counter summarizes ROB pops whose total is fixed
// by the (frozen) instruction stream, and every resource queue has a
// configured capacity its occupancy must respect. Audit cross-checks
// all of them; it never changes simulation-visible state.

// audit verifies the queue's redundant bookkeeping: occupancy within
// the buffer bounds and the incrementally tracked minimum equal to the
// true minimum of the live entries (^uint64(0) when empty).
func (q *timeq) audit() error {
	if q.n < 0 || q.n > len(q.buf) {
		return fmt.Errorf("occupancy %d outside [0, %d]", q.n, len(q.buf))
	}
	min := ^uint64(0)
	for i := 0; i < q.n; i++ {
		if q.buf[i] < min {
			min = q.buf[i]
		}
	}
	if q.min != min {
		return fmt.Errorf("tracked min %d but live entries have min %d (%d entries)", q.min, min, q.n)
	}
	return nil
}

// expectedRetired returns the total instruction count the stream expands
// to: compute batches contribute N units, barriers contribute nothing,
// every other record retires exactly once — trace.Counts.Instrs, which
// the cursor knows for the whole stream up front. Computed lazily —
// streams are frozen after trace build, so the total never changes.
func (c *Core) expectedRetired() uint64 {
	if !c.expectKnown {
		c.expectTotal = c.cur.Counts().Instrs
		c.expectKnown = true
	}
	return c.expectTotal
}

// Audit validates the core's redundant state at time now. The
// internal/check sanitizer registers it per core.
func (c *Core) Audit(now uint64) error {
	if c.robN < 0 || c.robN > c.cfg.ROBSize {
		return fmt.Errorf("rob occupancy %d outside [0, %d]", c.robN, c.cfg.ROBSize)
	}
	if c.robH < 0 || c.robH >= len(c.rob) {
		return fmt.Errorf("rob head %d outside ring of %d", c.robH, len(c.rob))
	}
	for _, q := range []struct {
		name string
		q    *timeq
		cap  int
	}{
		{"write buffer", &c.wb, c.cfg.WriteBufferSize},
		{"mshr", &c.mshr, c.cfg.MSHRs},
		{"atomic queue", &c.atomq, c.cfg.AtomicQueue},
	} {
		if err := q.q.audit(); err != nil {
			return fmt.Errorf("%s: %w", q.name, err)
		}
		if q.q.len() > q.cap {
			return fmt.Errorf("%s occupancy %d exceeds capacity %d", q.name, q.q.len(), q.cap)
		}
	}
	if c.pc > len(c.win) {
		return fmt.Errorf("pc %d past window end %d", c.pc, len(c.win))
	}
	if recs := c.cur.Counts().Records; c.winBase+uint64(c.pc) > recs {
		return fmt.Errorf("cursor position %d past stream end %d", c.winBase+uint64(c.pc), recs)
	}
	if c.computeLeft < 0 {
		return fmt.Errorf("negative compute batch remainder %d", c.computeLeft)
	}
	exp := c.expectedRetired()
	if c.retired > exp {
		return fmt.Errorf("retired %d of a %d-instruction stream", c.retired, exp)
	}
	if c.Done() && c.retired != exp {
		return fmt.Errorf("core done with %d retired, stream expands to %d", c.retired, exp)
	}
	// Retirement progress must be monotonic in time and rate-bounded:
	// at most IssueWidth retires per elapsed cycle, plus one ROB of
	// completed entries a truncation drain may pop at once. The compute
	// fast-forward books a whole stretch of retires at its tick time, so
	// progress is measured against the fast-forward horizon, within
	// which those retires architecturally happen.
	eff := max(now, c.ffUntil)
	if c.auditPrimed {
		if eff < c.auditPrevAt {
			return fmt.Errorf("audit time went backwards: %d after %d", eff, c.auditPrevAt)
		}
		if c.retired < c.auditPrevRetired {
			return fmt.Errorf("retired count went backwards: %d after %d", c.retired, c.auditPrevRetired)
		}
		bound := (eff - c.auditPrevAt + 1) * uint64(c.cfg.IssueWidth)
		bound += uint64(c.cfg.ROBSize)
		if d := c.retired - c.auditPrevRetired; d > bound {
			return fmt.Errorf("retired %d instructions in %d cycles (width %d, rob %d)",
				d, eff-c.auditPrevAt, c.cfg.IssueWidth, c.cfg.ROBSize)
		}
	}
	c.auditPrimed = true
	c.auditPrevAt = eff
	c.auditPrevRetired = c.retired
	return nil
}

// CorruptMSHRForTest leaks phantom MSHR entries past the file's
// capacity so fault-injection tests can prove the occupancy audit
// catches it. Test-only; never call from simulation code.
func (c *Core) CorruptMSHRForTest() {
	c.mshr.n = len(c.mshr.buf) + 1
}
