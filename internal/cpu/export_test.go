package cpu

// LastReason exposes the core's current stall classification.
func (c *Core) LastReason() StallReason { return c.lastReason }
