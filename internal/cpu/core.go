// Package cpu models the host cores of Table IV: 16 out-of-order cores at
// 2GHz with a 4-wide issue front end, a reorder buffer, a write buffer,
// and MSHR-limited memory-level parallelism.
//
// Cores are trace-driven: each core replays one thread's instruction
// stream through a dispatch/complete/retire pipeline. Dispatch is in-order
// but does not stall on data dependencies — a dependent operation is
// dispatched with an issue time equal to its producer's completion, so
// independent cache misses overlap up to the MSHR count (memory-level
// parallelism). Host atomic instructions exhibit the overheads the paper
// attributes to them (Section II-D): the write buffer drains, older memory
// operations complete first (fence semantics of the x86 "lock" prefix),
// and the pipeline freezes until the atomic finishes — destroying MLP.
// Offloaded (PIM) atomics dispatch like loads, freeze nothing, and — when
// their return value is unused — retire as soon as the request is posted.
package cpu

import (
	"fmt"

	"graphpim/internal/sim"
	"graphpim/internal/trace"
)

// Config holds the core microarchitecture parameters.
type Config struct {
	// IssueWidth is instructions dispatched and retired per cycle.
	IssueWidth int
	// ALUWidth caps compute instructions dispatched per cycle, modeling
	// ALU ports and dependency chains inside compute blocks.
	ALUWidth int
	// ROBSize is the reorder buffer capacity.
	ROBSize int
	// WriteBufferSize is the store buffer capacity.
	WriteBufferSize int
	// MSHRs bounds outstanding off-chip loads per core.
	MSHRs int
	// AtomicQueue bounds outstanding offloaded PIM atomics per core.
	AtomicQueue int
	// CASFailFlush is the speculation-flush penalty in cycles charged
	// when a CAS's comparison fails and the retry path re-executes.
	CASFailFlush uint64
	// FrontendBubble is the fetch-refill penalty after a pipeline
	// freeze (host atomic or barrier release).
	FrontendBubble uint64
}

// DefaultConfig returns the Table IV core configuration.
func DefaultConfig() Config {
	return Config{
		IssueWidth:      4,
		ALUWidth:        2,
		ROBSize:         192,
		WriteBufferSize: 64,
		MSHRs:           16,
		AtomicQueue:     16,
		CASFailFlush:    14,
		FrontendBubble:  3,
	}
}

// MemResult describes one load's or store's completion.
type MemResult struct {
	// CompleteAt is the absolute cycle the value is available (loads) or
	// the write leaves the write buffer (stores).
	CompleteAt uint64
	// OffChip marks accesses that left the chip (LLC miss or UC), which
	// occupy an MSHR until completion.
	OffChip bool
}

// AtomicResult describes one atomic's execution as decided by the POU and
// carried out by the memory system.
type AtomicResult struct {
	// Blocking is true for host atomics: the pipeline freezes until
	// CompleteAt.
	Blocking bool
	// AcceptedAt is when the request has been handed to the memory
	// system; a non-returning offloaded atomic retires then.
	AcceptedAt uint64
	// CompleteAt is when the result (or response) is available.
	CompleteAt uint64
	// InCacheCycles attributes the cache-checking and coherence portion
	// of a blocking atomic's latency (Fig. 9 "Atomic-inCache").
	InCacheCycles uint64
	// OffChip marks offloaded atomics, which occupy an atomic-queue
	// entry until CompleteAt.
	OffChip bool
	// ChainPenalty delays the core's load chain: the mandatory cache
	// check of a locality-aware offload (U-PEI) contends with in-flight
	// loads at the cache ports. GraphPIM's direct offload sets zero —
	// the "avoids unnecessary cache checking time" effect.
	ChainPenalty uint64
}

// MemorySystem is the interface the core issues memory operations to; the
// machine package implements it on top of the POU, caches, and HMC. The
// `at` argument is the operation's issue time, which may be later than the
// current cycle when the operation waits for a producer.
type MemorySystem interface {
	Load(core int, in trace.Instr, at uint64) MemResult
	Store(core int, in trace.Instr, at uint64) MemResult
	// AtomicBlocking reports, without side effects, whether in would
	// execute as a blocking host atomic.
	AtomicBlocking(core int, in trace.Instr) bool
	Atomic(core int, in trace.Instr, at uint64) AtomicResult
}

// StallReason classifies why a core made no progress in a cycle.
type StallReason uint8

// Stall reasons. The zero value means the core dispatched work.
const (
	StallNone StallReason = iota
	// StallROBFull: the reorder buffer is full behind a long-latency op.
	StallROBFull
	// StallWBFull: the write buffer is full.
	StallWBFull
	// StallMSHR: all MSHRs (or atomic-queue entries) are occupied.
	StallMSHR
	// StallFrozen: the pipeline is frozen by a host atomic, a CAS-fail
	// flush, or a frontend bubble; these cycles are pre-attributed at
	// dispatch time to the fine-grained atomic counters.
	StallFrozen
	// StallBarrier: the core waits at a barrier.
	StallBarrier
	// StallDrainOut: the trace is exhausted (or a barrier is next) and
	// in-flight work drains.
	StallDrainOut
	// StallDone: the core has fully finished.
	StallDone
)

func (s StallReason) String() string {
	switch s {
	case StallNone:
		return "active"
	case StallROBFull:
		return "rob_full"
	case StallWBFull:
		return "wb_full"
	case StallMSHR:
		return "mshr"
	case StallFrozen:
		return "frozen"
	case StallBarrier:
		return "barrier"
	case StallDrainOut:
		return "drain_out"
	case StallDone:
		return "done"
	}
	return fmt.Sprintf("stall(%d)", uint8(s))
}

// coreCounters holds pre-resolved stat handles for the per-cycle paths.
// Resolving once at construction keeps Tick free of map lookups and
// string hashing (see sim.Stats.Counter).
type coreCounters struct {
	retired    sim.Counter
	dispatched sim.Counter
	frontend   sim.Counter
	badspec    sim.Counter
	depWait    sim.Counter

	atomicDrain   sim.Counter
	atomicInCore  sim.Counter
	atomicInCache sim.Counter

	// cycles is indexed by StallReason; StallNone maps to active cycles.
	cycles [StallDone + 1]sim.Counter
}

func resolveCoreCounters(stats *sim.Stats) coreCounters {
	c := coreCounters{
		retired:       stats.Counter("cpu.retired"),
		dispatched:    stats.Counter("cpu.dispatched"),
		frontend:      stats.Counter("cpu.frontend_cycles"),
		badspec:       stats.Counter("cpu.badspec_cycles"),
		depWait:       stats.Counter("cpu.cycles.dep_wait"),
		atomicDrain:   stats.Counter("cpu.atomic.drain_cycles"),
		atomicInCore:  stats.Counter("cpu.atomic.incore_cycles"),
		atomicInCache: stats.Counter("cpu.atomic.incache_cycles"),
	}
	c.cycles[StallNone] = stats.Counter("cpu.cycles.active")
	c.cycles[StallROBFull] = stats.Counter("cpu.cycles.stall_rob")
	c.cycles[StallWBFull] = stats.Counter("cpu.cycles.stall_wb")
	c.cycles[StallMSHR] = stats.Counter("cpu.cycles.stall_mshr")
	c.cycles[StallFrozen] = stats.Counter("cpu.cycles.frozen")
	c.cycles[StallBarrier] = stats.Counter("cpu.cycles.barrier")
	c.cycles[StallDrainOut] = stats.Counter("cpu.cycles.drain_out")
	c.cycles[StallDone] = stats.Counter("cpu.cycles.idle_done")
	return c
}

// Core is one simulated out-of-order core.
type Core struct {
	id  int
	cfg Config
	mem MemorySystem
	ctr coreCounters

	// The instruction stream arrives through cur as contiguous windows
	// (trace.Cursor): win is the current window, pc the index into it,
	// winBase the records consumed before it. A materialized trace is one
	// whole-slice window, so the dispatch hot path stays plain slice
	// indexing; a streamed trace refills win one decoded chunk at a time.
	cur         trace.Cursor
	win         []trace.Instr
	pc          int
	winBase     uint64
	eof         bool
	computeLeft int  // remaining units of the current compute batch
	computeDep  bool // first unit of the batch depends on lastMemDone

	// rob is a fixed-capacity FIFO ring of completion times (the only
	// per-entry state the model needs). The previous representation — a
	// slice popped with rob[1:] and refilled with append — reallocated
	// its backing array every ROBSize retirements, which dominated the
	// simulator's per-run allocations on rob-churning workloads; the
	// ring allocates once at construction and never again.
	rob   []uint64 // ring buffer, len == ROBSize
	robH  int      // head index (oldest entry)
	robN  int      // occupancy
	wb    timeq    // store completion times
	mshr  timeq    // outstanding off-chip load completion times
	atomq timeq    // outstanding offloaded atomic completion times

	lastMemDone  uint64 // completion time of the newest load or atomic
	lastLoadDone uint64 // completion time of the newest load (value chain)
	frozenUntil  uint64
	// ffUntil is the active horizon: the cycles before it were booked as
	// active by the dispatch cycle, run-ahead or fast-forward that set
	// it, and a tick before it has nothing left to do.
	ffUntil uint64
	// retireFrom is the first cycle retirement has not been evaluated
	// for (see retire).
	retireFrom uint64
	// robMax is the latest completion time ever pushed to the ROB. Every
	// popped entry completed by the cycle it retired, so robMax <= now
	// exactly when every live entry is complete at now.
	robMax uint64

	waitingBarrier bool
	retired        uint64
	lastReason     StallReason

	// stepwise turns off run-ahead, so every dispatch cycle is its own
	// tick. Tests set it to build the per-cycle reference a run-ahead
	// core must match.
	stepwise bool

	// Sanitizer bookkeeping (see audit.go); never read by Tick.
	expectKnown      bool
	expectTotal      uint64
	auditPrimed      bool
	auditPrevAt      uint64
	auditPrevRetired uint64
}

// NewCore builds a core replaying a materialized stream against mem.
func NewCore(id int, cfg Config, mem MemorySystem, stream []trace.Instr, stats *sim.Stats) *Core {
	return NewCoreCursor(id, cfg, mem, trace.SliceCursor(stream), stats)
}

// NewCoreCursor builds a core consuming its instruction stream through a
// trace.Cursor — one whole-slice window for materialized traces, bounded
// decoded chunks for streamed ones.
func NewCoreCursor(id int, cfg Config, mem MemorySystem, cur trace.Cursor, stats *sim.Stats) *Core {
	if cfg.IssueWidth <= 0 || cfg.ROBSize <= 0 {
		panic("cpu: invalid core config")
	}
	if cfg.ALUWidth <= 0 {
		cfg.ALUWidth = cfg.IssueWidth
	}
	// All four fixed-capacity queues share one backing array: the ROB
	// ring and the three timeq buffers hold plain uint64 completion
	// times, so a core costs one queue allocation instead of four. The
	// three-index slices clip each queue's capacity to its own span.
	rob := cfg.ROBSize
	wb := rob + cfg.WriteBufferSize
	mshr := wb + cfg.MSHRs
	buf := make([]uint64, mshr+cfg.AtomicQueue)
	return &Core{
		id:    id,
		cfg:   cfg,
		mem:   mem,
		ctr:   resolveCoreCounters(stats),
		cur:   cur,
		rob:   buf[:rob:rob],
		wb:    newTimeq(buf[rob:wb:wb]),
		mshr:  newTimeq(buf[wb:mshr:mshr]),
		atomq: newTimeq(buf[mshr:]),
	}
}

// Cursor exposes the core's stream cursor (the machine registers
// auditable cursors with the sanitizer).
func (c *Core) Cursor() trace.Cursor { return c.cur }

// more reports whether a record is available at the cursor position,
// pulling the next window when the current one is consumed. The fast
// path is one comparison; refills happen once per window.
func (c *Core) more() bool {
	for c.pc >= len(c.win) {
		if c.eof {
			return false
		}
		c.winBase += uint64(len(c.win))
		c.win = c.cur.NextWindow()
		c.pc = 0
		if len(c.win) == 0 {
			c.eof = true
			c.win = nil
			return false
		}
	}
	return true
}

// robPush appends a completion time to the ROB ring. The dispatch loop
// checks occupancy against ROBSize before every push, so overflow is
// impossible by construction (and audited, see Audit).
func (c *Core) robPush(doneAt uint64) {
	i := c.robH + c.robN
	if i >= len(c.rob) {
		i -= len(c.rob)
	}
	c.rob[i] = doneAt
	c.robN++
	if doneAt > c.robMax {
		c.robMax = doneAt
	}
}

// robPop removes the oldest ROB entry; the caller has checked robN > 0.
func (c *Core) robPop() {
	c.robH++
	if c.robH == len(c.rob) {
		c.robH = 0
	}
	c.robN--
}

// robHead returns the oldest entry's completion time; the caller has
// checked robN > 0.
func (c *Core) robHead() uint64 { return c.rob[c.robH] }

// Retired returns the number of retired instructions.
func (c *Core) Retired() uint64 { return c.retired }

// WaitingBarrier reports whether the core is parked at a barrier.
func (c *Core) WaitingBarrier() bool { return c.waitingBarrier }

// ReleaseBarrier resumes a core parked at a barrier, applying the
// frontend refill bubble.
func (c *Core) ReleaseBarrier(now uint64) {
	if !c.waitingBarrier {
		return
	}
	c.waitingBarrier = false
	c.frozenUntil = now + c.cfg.FrontendBubble
	c.ctr.frontend.Add(c.cfg.FrontendBubble)
}

// Done reports whether the core has retired everything.
func (c *Core) Done() bool {
	return c.computeLeft == 0 && c.robN == 0 && c.wb.empty() &&
		!c.waitingBarrier && !c.more()
}

// exhausted reports whether the instruction stream is fully dispatched:
// only in-flight work (ROB, write buffer) keeps the core from Done.
func (c *Core) exhausted() bool {
	return c.computeLeft == 0 && !c.more()
}

// retire pops completed ROB entries in order, up to IssueWidth per
// cycle, for every cycle from retireFrom through now: retirement is
// computed for the cycles since the last evaluation, so it drains at
// IssueWidth per cycle from each head completion onward no matter how
// often the core is ticked. Entries dispatched at a cycle retire at the
// next cycle at the earliest, because retirement is always evaluated up
// to a cycle before that cycle dispatches.
func (c *Core) retire(now uint64) {
	t := c.retireFrom
	if now < t {
		return
	}
	c.retireFrom = now + 1
	n := 0
	for c.robN > 0 && t <= now {
		h := c.robHead()
		if h > now {
			break
		}
		if h > t {
			t = h
		}
		for k := 0; k < c.cfg.IssueWidth && c.robN > 0 && c.robHead() <= t; k++ {
			c.robPop()
			n++
		}
		t++
	}
	if n > 0 {
		c.retired += uint64(n)
		c.ctr.retired.Add(uint64(n))
	}
}

// drainAt returns the cycle at which the core's in-flight work is gone:
// the ROB's last width-limited retirement (simulated from retireFrom
// without popping) or the write buffer's last store completion,
// whichever is later, and never before now+1. That is the one cycle a
// drain is observable — a pending barrier parks, or an exhausted core is
// Done — so a draining core is woken exactly then instead of at every
// retirement on the way.
func (c *Core) drainAt(now uint64) uint64 {
	t := max(now+1, c.wb.maxT())
	at, used := c.retireFrom, 0
	for i, j := 0, c.robH; i < c.robN; i++ {
		if used == c.cfg.IssueWidth {
			at++
			used = 0
		}
		if d := c.rob[j]; d > at {
			at, used = d, 0
		}
		used++
		if j++; j == len(c.rob) {
			j = 0
		}
	}
	if c.robN > 0 && at > t {
		t = at
	}
	return t
}

// frozenRelease returns the wake time of a core frozen at now: the thaw,
// or the cycle it drains to Done if the stream is exhausted and that
// comes first (Done is checked before the freeze).
func (c *Core) frozenRelease(now uint64) uint64 {
	next := c.frozenUntil
	if c.exhausted() {
		if d := c.drainAt(now); d < next {
			next = d
		}
	}
	return next
}

// attribute charges the elapsed cycles since the previous tick: those
// before ffUntil were active (the dispatch, run-ahead or fast-forward
// that set it booked them), the rest go to the stall the previous tick
// reported. Frozen cycles are additionally pre-attributed at dispatch
// time to the fine-grained atomic counters.
func (c *Core) attribute(now, elapsed uint64) {
	if elapsed == 0 {
		return
	}
	var active uint64
	if c.ffUntil+elapsed > now {
		active = min(c.ffUntil+elapsed-now, elapsed)
		c.ctr.cycles[StallNone].Add(active)
	}
	if rest := elapsed - active; rest > 0 {
		c.ctr.cycles[c.lastReason].Add(rest)
	}
}

// issueTime computes when a memory instruction's operands are ready: a
// dependent memory operation chains through the most recent load (pointer
// chase / value flow); posted atomics never feed addresses.
func (c *Core) issueTime(in *trace.Instr, now uint64) uint64 {
	if in.DepPrev() {
		return max(now, c.lastLoadDone)
	}
	return now
}

// Tick advances the core to absolute cycle now; elapsed is the cycles
// since the previous tick (attributed to the previous state). It returns
// the next cycle at which the core can touch shared state — call the
// memory system, reach a barrier, or finish — or ^uint64(0) when only
// another core's barrier arrival or nothing at all can wake it. Cycles
// in between only retire, stall, or dispatch computes; Tick computes
// them itself, so ticking the core at any extra cycle changes nothing.
func (c *Core) Tick(now, elapsed uint64) uint64 {
	c.attribute(now, elapsed)

	c.retire(now)
	c.wb.expire(now)
	c.mshr.expire(now)
	c.atomq.expire(now)

	if c.Done() {
		c.lastReason = StallDone
		return ^uint64(0)
	}
	if c.waitingBarrier {
		c.lastReason = StallBarrier
		return ^uint64(0)
	}
	if now < c.ffUntil {
		// Inside a run-ahead or fast-forward stretch this tick has
		// already accounted for.
		c.lastReason = StallNone
		return c.ffUntil
	}
	if now < c.frozenUntil {
		// The ROB and write buffer keep draining underneath the freeze;
		// retirement is computed, so only the thaw, or Done for an
		// exhausted stream, needs a wake.
		c.lastReason = StallFrozen
		return c.frozenRelease(now)
	}
	if until, ok := c.fastForward(now); ok {
		return until
	}
	return c.dispatch(now)
}

// fastForward books a long, unobstructed compute batch in one step:
// with an empty machine (no in-flight memory, every ROB entry complete)
// the batch dispatches at ALUWidth per cycle, so the whole stretch is
// accounted at once and the core sleeps until ffUntil. The early
// retirement it books is why the sanitizer measures retire rates against
// ffUntil (see Audit).
func (c *Core) fastForward(now uint64) (uint64, bool) {
	if c.computeLeft <= 4*c.cfg.IssueWidth ||
		!c.wb.empty() || !c.mshr.empty() || !c.atomq.empty() ||
		(c.computeDep && c.lastMemDone > now) || c.robMax > now {
		return 0, false
	}
	// Any remaining ROB entries are complete (robMax bounds every live
	// entry); they retire inside the stretch at IssueWidth per cycle
	// alongside the new computes.
	c.computeDep = false
	n := c.computeLeft - 1 // leave the tail for the normal path
	cycles := uint64(n / c.cfg.ALUWidth)
	if cycles <= 1 {
		return 0, false
	}
	n = int(cycles) * c.cfg.ALUWidth
	c.computeLeft -= n
	drained := c.robN
	c.robH, c.robN = 0, 0
	c.retired += uint64(n + drained)
	c.ctr.retired.Add(uint64(n + drained))
	c.ctr.dispatched.Add(uint64(n))
	c.ffUntil = now + cycles
	c.lastReason = StallNone
	return c.ffUntil, true
}

// pushComputes dispatches k units of the current compute batch at cycle
// now; the first unit of a dependent batch waits for lastMemDone.
func (c *Core) pushComputes(now uint64, k int) {
	for i := 0; i < k; i++ {
		done := now + 1
		if c.computeDep {
			done = max(now, c.lastMemDone) + 1
			c.computeDep = false
		}
		c.robPush(done)
	}
	c.computeLeft -= k
}

// dispatch runs cycle now's dispatch and returns the core's next wake.
// A cycle that dispatches books itself as active through ffUntil; if it
// ends on a stall it returns the stall's release time, and the cycles
// until then go to the stall. A cycle that ends with a compute batch in
// progress continues in runAhead.
func (c *Core) dispatch(now uint64) uint64 {
	dispatched, aluUsed := 0, 0
	reason := StallNone
	var next uint64 // the stall's release time

dispatch:
	for dispatched < c.cfg.IssueWidth {
		in := c.peek()
		if in == nil {
			reason = StallDrainOut
			next = c.drainAt(now)
			if c.Done() {
				// This tick consumed a tail of empty compute records,
				// the last thing between the core and Done.
				reason, next = StallDone, ^uint64(0)
			}
			break
		}
		if c.robN >= c.cfg.ROBSize {
			reason = StallROBFull
			next = c.robHead()
			break
		}
		switch in.Kind {
		case trace.KindCompute:
			if c.computeLeft == 0 {
				c.computeLeft = int(in.N)
				c.computeDep = in.DepPrev()
				c.pc++
				if c.computeLeft == 0 {
					continue
				}
			}
			if aluUsed >= c.cfg.ALUWidth {
				break dispatch
			}
			k := min(c.computeLeft, c.cfg.ALUWidth-aluUsed,
				c.cfg.IssueWidth-dispatched, c.cfg.ROBSize-c.robN)
			c.pushComputes(now, k)
			aluUsed += k
			dispatched += k

		case trace.KindLoad:
			if c.mshr.len() >= c.cfg.MSHRs {
				reason = StallMSHR
				next = c.mshr.minT()
				break dispatch
			}
			res := c.mem.Load(c.id, *in, c.issueTime(in, now))
			if res.OffChip {
				c.mshr.add(res.CompleteAt)
			}
			if res.CompleteAt > c.lastMemDone {
				c.lastMemDone = res.CompleteAt
			}
			if res.CompleteAt > c.lastLoadDone {
				c.lastLoadDone = res.CompleteAt
			}
			c.robPush(res.CompleteAt)
			c.pc++
			dispatched++

		case trace.KindStore:
			if c.wb.len() >= c.cfg.WriteBufferSize {
				reason = StallWBFull
				next = c.wb.minT()
				break dispatch
			}
			res := c.mem.Store(c.id, *in, c.issueTime(in, now))
			c.wb.add(res.CompleteAt)
			// The store retires once buffered.
			c.robPush(now + 1)
			c.pc++
			dispatched++

		case trace.KindAtomic:
			if c.mem.AtomicBlocking(c.id, *in) {
				// Host atomic: fence semantics. The write buffer
				// drains and all older memory operations complete
				// before the locked RMW issues; the pipeline freezes
				// until it finishes.
				//
				// Attribution (Fig. 9): waiting for the atomic's own
				// operand (a dependent load) is an ordinary backend
				// stall; only the extra wait the fence imposes and the
				// locked RMW itself count as atomic overhead.
				naturalReady := c.issueTime(in, now)
				fenceReady := max(naturalReady, c.wb.maxT(), c.lastMemDone)
				res := c.mem.Atomic(c.id, *in, fenceReady)
				c.ctr.depWait.Add(naturalReady - now)
				drain := fenceReady - naturalReady
				c.ctr.atomicDrain.Add(drain)
				freeze := res.CompleteAt - fenceReady
				inCache := res.InCacheCycles
				if inCache > freeze {
					inCache = freeze
				}
				c.ctr.atomicInCore.Add(drain + freeze - inCache)
				c.ctr.atomicInCache.Add(inCache)
				fz := res.CompleteAt
				if in.CASFailed() {
					fz += c.cfg.CASFailFlush
					c.ctr.badspec.Add(c.cfg.CASFailFlush)
				}
				fz += c.cfg.FrontendBubble
				c.ctr.frontend.Add(c.cfg.FrontendBubble)
				c.frozenUntil = fz
				c.lastMemDone = res.CompleteAt
				c.lastLoadDone = res.CompleteAt
				c.robPush(res.CompleteAt)
				c.pc++
				dispatched++
				reason = StallFrozen
				next = c.frozenRelease(now)
				break dispatch
			}
			// Offloaded atomic: non-blocking, pipelined.
			if c.atomq.len() >= c.cfg.AtomicQueue {
				reason = StallMSHR
				next = c.atomq.minT()
				break dispatch
			}
			res := c.mem.Atomic(c.id, *in, c.issueTime(in, now))
			doneAt := res.AcceptedAt
			if in.RetUsed() {
				doneAt = res.CompleteAt
			}
			eff := res.CompleteAt
			if in.CASFailed() {
				// The mispredicted retry path costs a flush worth of
				// work once the response arrives.
				eff += c.cfg.CASFailFlush
				doneAt += c.cfg.CASFailFlush
				c.ctr.badspec.Add(c.cfg.CASFailFlush)
			}
			if res.OffChip {
				c.atomq.add(res.CompleteAt)
			}
			if eff > c.lastMemDone {
				c.lastMemDone = eff
			}
			if in.RetUsed() && eff > c.lastLoadDone {
				c.lastLoadDone = eff
			}
			if res.ChainPenalty > 0 {
				c.lastLoadDone = max(c.lastLoadDone, now) + res.ChainPenalty
			}
			c.robPush(doneAt)
			c.pc++
			dispatched++

		case trace.KindBarrier:
			// A barrier drains the core before parking it.
			if c.robN > 0 || !c.wb.empty() {
				reason = StallDrainOut
				next = c.drainAt(now)
				break dispatch
			}
			c.pc++
			c.waitingBarrier = true
			reason = StallBarrier
			next = ^uint64(0)
			break dispatch
		}
	}

	c.lastReason = reason
	if dispatched > 0 {
		c.ctr.dispatched.Add(uint64(dispatched))
		c.ffUntil = now + 1
		if reason == StallNone && !c.stepwise {
			return c.runAhead(now)
		}
	}
	if next <= now {
		next = now + 1
	}
	return next
}

// runAhead continues a dispatch cycle that ended inside a compute batch.
// While more than ALUWidth computes remain, the next cycle can only
// retire and dispatch computes — it touches no shared state — so it runs
// here, as long as the ROB has room after that cycle's retirement; a
// cycle where the fast-forward applies hands over to it. The stretch is
// booked as active through ffUntil, and the core wakes at the first
// cycle that may dispatch something else or stall.
func (c *Core) runAhead(now uint64) uint64 {
	u := now + 1
	for c.computeLeft > c.cfg.ALUWidth {
		c.retire(u)
		if c.computeLeft > 4*c.cfg.IssueWidth {
			c.wb.expire(u)
			c.mshr.expire(u)
			c.atomq.expire(u)
			if until, ok := c.fastForward(u); ok {
				return until
			}
		}
		free := c.cfg.ROBSize - c.robN
		if free == 0 {
			break
		}
		k := min(c.cfg.ALUWidth, c.cfg.IssueWidth, free)
		c.pushComputes(u, k)
		c.ctr.dispatched.Add(uint64(k))
		u++
	}
	c.ffUntil = u
	return u
}

// batchRecord stands for a compute batch in progress: dispatch reads
// only its Kind (the batch length is computeLeft). Never written.
var batchRecord = trace.Instr{Kind: trace.KindCompute}

// peek returns the next instruction in place, without consuming it, or
// nil at end of stream: a pointer into the current window, or to
// batchRecord while a compute batch is in progress. The record stays
// valid until the next more call.
func (c *Core) peek() *trace.Instr {
	if c.computeLeft > 0 {
		return &batchRecord
	}
	if !c.more() {
		return nil
	}
	return &c.win[c.pc]
}
