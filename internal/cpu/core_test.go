package cpu

import (
	"testing"

	"graphpim/internal/memmap"
	"graphpim/internal/sim"
	"graphpim/internal/trace"
)

// mockMem is a configurable MemorySystem for core tests.
type mockMem struct {
	loadLat   uint64
	storeLat  uint64
	atomicLat uint64
	blocking  bool
	offChip   bool
	inCache   uint64
	loads     int
	atomics   int
}

func (m *mockMem) Load(_ int, _ trace.Instr, now uint64) MemResult {
	m.loads++
	return MemResult{CompleteAt: now + m.loadLat, OffChip: m.offChip}
}

func (m *mockMem) Store(_ int, _ trace.Instr, now uint64) MemResult {
	return MemResult{CompleteAt: now + m.storeLat}
}

func (m *mockMem) AtomicBlocking(_ int, _ trace.Instr) bool { return m.blocking }

func (m *mockMem) Atomic(_ int, _ trace.Instr, now uint64) AtomicResult {
	m.atomics++
	return AtomicResult{
		Blocking:      m.blocking,
		AcceptedAt:    now + 2,
		CompleteAt:    now + m.atomicLat,
		InCacheCycles: m.inCache,
		OffChip:       !m.blocking,
	}
}

// run drives a single core to completion and returns the final cycle.
func run(t *testing.T, c *Core) uint64 {
	t.Helper()
	now := uint64(0)
	prev := uint64(0)
	for i := 0; i < 1_000_000; i++ {
		next := c.Tick(now, now-prev)
		if c.Done() {
			return now
		}
		prev = now
		if next <= now {
			next = now + 1
		}
		now = next
	}
	t.Fatal("core did not finish within 1M ticks")
	return 0
}

func computeTrace(n int) []trace.Instr {
	return []trace.Instr{{Kind: trace.KindCompute, N: uint16(n)}}
}

// TestCoreQueuesAreDisjoint pins the one backing array NewCoreCursor
// slices: the ROB and the three timeq buffers each hold exactly their
// configured capacity, and no write into one shows in another.
func TestCoreQueuesAreDisjoint(t *testing.T) {
	cfg := DefaultConfig()
	c := NewCore(0, cfg, &mockMem{}, computeTrace(1), sim.NewStats())
	queues := []struct {
		buf  []uint64
		want int
	}{{c.rob, cfg.ROBSize}, {c.wb.buf, cfg.WriteBufferSize}, {c.mshr.buf, cfg.MSHRs}, {c.atomq.buf, cfg.AtomicQueue}}
	for i, q := range queues {
		if len(q.buf) != q.want || cap(q.buf) != q.want {
			t.Fatalf("queue %d: len %d cap %d, want %d", i, len(q.buf), cap(q.buf), q.want)
		}
		for j := range q.buf {
			q.buf[j] = uint64(i + 1)
		}
	}
	for i, q := range queues {
		for _, v := range q.buf {
			if v != uint64(i+1) {
				t.Fatalf("queue %d overlaps queue %d", i, v-1)
			}
		}
	}
}

func TestPureComputeIPC(t *testing.T) {
	st := sim.NewStats()
	c := NewCore(0, DefaultConfig(), &mockMem{}, computeTrace(4000), st)
	cycles := run(t, c)
	if c.Retired() != 4000 {
		t.Fatalf("retired %d, want 4000", c.Retired())
	}
	// 2 ALU ports: ~2000 cycles plus small pipeline fill.
	if cycles < 2000 || cycles > 2100 {
		t.Fatalf("pure compute took %d cycles, want ~2000", cycles)
	}
}

func TestLoadLatencyHidden(t *testing.T) {
	// Independent loads overlap: 16 loads at 100 cycles each with 16
	// MSHRs should take ~100 cycles, not 1600.
	mem := &mockMem{loadLat: 100, offChip: true}
	var ins []trace.Instr
	for i := 0; i < 16; i++ {
		ins = append(ins, trace.Instr{Kind: trace.KindLoad, Size: 8})
	}
	c := NewCore(0, DefaultConfig(), mem, ins, sim.NewStats())
	cycles := run(t, c)
	if cycles > 140 {
		t.Fatalf("independent loads did not overlap: %d cycles", cycles)
	}
}

func TestMSHRLimitsParallelism(t *testing.T) {
	mem := &mockMem{loadLat: 100, offChip: true}
	cfg := DefaultConfig()
	cfg.MSHRs = 2
	var ins []trace.Instr
	for i := 0; i < 8; i++ {
		ins = append(ins, trace.Instr{Kind: trace.KindLoad, Size: 8})
	}
	c := NewCore(0, cfg, mem, ins, sim.NewStats())
	cycles := run(t, c)
	// 8 loads, 2 at a time: ~400 cycles.
	if cycles < 390 {
		t.Fatalf("MSHR limit not enforced: %d cycles", cycles)
	}
}

func TestDependentLoadSerializes(t *testing.T) {
	mem := &mockMem{loadLat: 100, offChip: true}
	ins := []trace.Instr{
		{Kind: trace.KindLoad, Size: 8},
		{Kind: trace.KindLoad, Size: 8, Flags: trace.FlagDepPrev},
	}
	c := NewCore(0, DefaultConfig(), mem, ins, sim.NewStats())
	cycles := run(t, c)
	if cycles < 200 {
		t.Fatalf("dependent loads overlapped: %d cycles", cycles)
	}
}

func TestBlockingAtomicFreezesPipeline(t *testing.T) {
	mem := &mockMem{atomicLat: 150, blocking: true, inCache: 30}
	st := sim.NewStats()
	ins := []trace.Instr{
		{Kind: trace.KindAtomic, Atomic: trace.AtomicCAS, Size: 8},
		{Kind: trace.KindCompute, N: 10},
	}
	c := NewCore(0, DefaultConfig(), mem, ins, st)
	cycles := run(t, c)
	// Freeze of 150 + bubble before the compute can run.
	if cycles < 150 {
		t.Fatalf("pipeline not frozen: %d cycles", cycles)
	}
	if st.Get("cpu.atomic.incore_cycles") != 120 || st.Get("cpu.atomic.incache_cycles") != 30 {
		t.Fatalf("attribution wrong: incore=%d incache=%d",
			st.Get("cpu.atomic.incore_cycles"), st.Get("cpu.atomic.incache_cycles"))
	}
}

func TestBlockingAtomicDrainsWriteBuffer(t *testing.T) {
	mem := &mockMem{storeLat: 200, atomicLat: 50, blocking: true}
	st := sim.NewStats()
	ins := []trace.Instr{
		{Kind: trace.KindStore, Size: 8},
		{Kind: trace.KindAtomic, Atomic: trace.AtomicCAS, Size: 8},
	}
	c := NewCore(0, DefaultConfig(), mem, ins, st)
	cycles := run(t, c)
	// Store completes at ~200; atomic may only start then.
	if cycles < 250 {
		t.Fatalf("atomic did not wait for write-buffer drain: %d cycles", cycles)
	}
	if st.Get("cpu.atomic.drain_cycles") == 0 {
		t.Fatal("drain cycles not recorded")
	}
}

func TestOffloadedAtomicDoesNotFreeze(t *testing.T) {
	// Non-blocking atomics with unused returns: dispatch proceeds, so
	// 100 atomics + compute finish far faster than blocking would.
	mem := &mockMem{atomicLat: 150, blocking: false}
	var ins []trace.Instr
	for i := 0; i < 16; i++ {
		ins = append(ins, trace.Instr{Kind: trace.KindAtomic, Atomic: trace.AtomicAdd, Size: 8})
	}
	c := NewCore(0, DefaultConfig(), mem, ins, sim.NewStats())
	cycles := run(t, c)
	// With a 16-deep atomic queue all 16 overlap: ~150 cycles, not 2400.
	if cycles > 250 {
		t.Fatalf("offloaded atomics serialized: %d cycles", cycles)
	}
}

func TestOffloadedReturningAtomicBlocksDependents(t *testing.T) {
	mem := &mockMem{atomicLat: 150, blocking: false}
	ins := []trace.Instr{
		{Kind: trace.KindAtomic, Atomic: trace.AtomicCAS, Size: 8, Flags: trace.FlagRetUsed},
		{Kind: trace.KindCompute, N: 1, Flags: trace.FlagDepPrev},
	}
	c := NewCore(0, DefaultConfig(), mem, ins, sim.NewStats())
	cycles := run(t, c)
	if cycles < 150 {
		t.Fatalf("dependent did not wait for atomic response: %d cycles", cycles)
	}
}

func TestCASFailureChargesBadSpeculation(t *testing.T) {
	mem := &mockMem{atomicLat: 50, blocking: false}
	st := sim.NewStats()
	ins := []trace.Instr{
		{Kind: trace.KindAtomic, Atomic: trace.AtomicCAS, Size: 8, Flags: trace.FlagRetUsed | trace.FlagCASFail},
	}
	c := NewCore(0, DefaultConfig(), mem, ins, st)
	run(t, c)
	if st.Get("cpu.badspec_cycles") == 0 {
		t.Fatal("failed CAS did not charge bad speculation")
	}
}

func TestBarrierParksCore(t *testing.T) {
	st := sim.NewStats()
	ins := []trace.Instr{
		{Kind: trace.KindCompute, N: 4},
		{Kind: trace.KindBarrier},
		{Kind: trace.KindCompute, N: 4},
	}
	c := NewCore(0, DefaultConfig(), &mockMem{}, ins, st)
	now, prev := uint64(0), uint64(0)
	for i := 0; i < 100 && !c.WaitingBarrier(); i++ {
		next := c.Tick(now, now-prev)
		prev = now
		now = max(next, now+1)
	}
	if !c.WaitingBarrier() {
		t.Fatal("core never reached the barrier")
	}
	// Parked: further ticks make no progress.
	r0 := c.Retired()
	for i := 0; i < 10; i++ {
		c.Tick(now, 1)
		now++
	}
	if c.Retired() != r0 {
		t.Fatal("core progressed past an unreleased barrier")
	}
	c.ReleaseBarrier(now)
	for i := 0; i < 100 && !c.Done(); i++ {
		next := c.Tick(now, 1)
		now = max(next, now+1)
	}
	if !c.Done() || c.Retired() != 8 {
		t.Fatalf("after release: done=%v retired=%d", c.Done(), c.Retired())
	}
}

func TestWriteBufferCapacity(t *testing.T) {
	mem := &mockMem{storeLat: 1000}
	cfg := DefaultConfig()
	cfg.WriteBufferSize = 4
	var ins []trace.Instr
	for i := 0; i < 8; i++ {
		ins = append(ins, trace.Instr{Kind: trace.KindStore, Size: 8})
	}
	st := sim.NewStats()
	c := NewCore(0, cfg, mem, ins, st)
	run(t, c)
	if st.Get("cpu.cycles.stall_wb") == 0 {
		t.Fatal("full write buffer never stalled dispatch")
	}
}

func TestROBFullStall(t *testing.T) {
	mem := &mockMem{loadLat: 10_000, offChip: false} // long but not MSHR-limited
	cfg := DefaultConfig()
	cfg.ROBSize = 8
	var ins []trace.Instr
	ins = append(ins, trace.Instr{Kind: trace.KindLoad, Size: 8})
	ins = append(ins, computeTrace(100)...)
	st := sim.NewStats()
	c := NewCore(0, cfg, mem, ins, st)
	run(t, c)
	if st.Get("cpu.cycles.stall_rob") == 0 {
		t.Fatal("ROB never filled behind a long-latency load")
	}
}

func TestRetiredMatchesTrace(t *testing.T) {
	mem := &mockMem{loadLat: 20, storeLat: 10, atomicLat: 30, offChip: true}
	space := memmap.NewAddressSpace()
	b := trace.NewBuilder(space, 1)
	e := b.Thread(0)
	addr := space.AllocProperty(4096)
	e.Compute(123)
	for i := 0; i < 37; i++ {
		e.Load(addr, 8, i%3 == 0)
		e.Store(addr, 8, false)
		e.Atomic(trace.AtomicAdd, addr, 8, false, false, false)
	}
	tr := b.Build()
	c := NewCore(0, DefaultConfig(), mem, tr.Threads[0], sim.NewStats())
	run(t, c)
	if c.Retired() != tr.TotalInstructions() {
		t.Fatalf("retired %d, trace has %d", c.Retired(), tr.TotalInstructions())
	}
}

func TestStallReasonStrings(t *testing.T) {
	for r := StallNone; r <= StallDone; r++ {
		if r.String() == "" {
			t.Errorf("reason %d has empty string", r)
		}
	}
}

func TestNewCorePanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad config did not panic")
		}
	}()
	NewCore(0, Config{}, &mockMem{}, nil, sim.NewStats())
}

func TestFastForwardMatchesSlowPathCycles(t *testing.T) {
	// A large compute batch must take exactly ceil(n/ALUWidth) cycles
	// (plus pipeline tails) whether or not the fast-forward path fires.
	st := sim.NewStats()
	c := NewCore(0, DefaultConfig(), &mockMem{}, computeTrace(10000), st)
	cycles := run(t, c)
	if c.Retired() != 10000 {
		t.Fatalf("retired %d", c.Retired())
	}
	// 2 ALU ports: 5000 cycles, small tolerance for fill/drain.
	if cycles < 5000 || cycles > 5100 {
		t.Fatalf("10k computes took %d cycles, want ~5000", cycles)
	}
}

func TestFastForwardRespectsPendingMemory(t *testing.T) {
	// A long compute batch after an off-chip load: the fast path must
	// not fire while the MSHR entry is live in a way that skips the
	// load's completion accounting.
	mem := &mockMem{loadLat: 500, offChip: true}
	ins := []trace.Instr{
		{Kind: trace.KindLoad, Size: 8},
		{Kind: trace.KindCompute, N: 8000, Flags: trace.FlagDepPrev},
	}
	c := NewCore(0, DefaultConfig(), mem, ins, sim.NewStats())
	cycles := run(t, c)
	// Dependent batch starts after the load (500) and runs 4000 cycles.
	if cycles < 4400 {
		t.Fatalf("dependent batch overlapped its producer: %d cycles", cycles)
	}
}

func TestFrozenCoreRespectsBarrierAfterThaw(t *testing.T) {
	mem := &mockMem{atomicLat: 100, blocking: true}
	ins := []trace.Instr{
		{Kind: trace.KindAtomic, Atomic: trace.AtomicCAS, Size: 8},
		{Kind: trace.KindBarrier},
		{Kind: trace.KindCompute, N: 4},
	}
	c := NewCore(0, DefaultConfig(), mem, ins, sim.NewStats())
	now, prev := uint64(0), uint64(0)
	for i := 0; i < 10000 && !c.WaitingBarrier(); i++ {
		next := c.Tick(now, now-prev)
		prev, now = now, max(next, now+1)
	}
	if !c.WaitingBarrier() {
		t.Fatal("never reached barrier after atomic freeze")
	}
	c.ReleaseBarrier(now)
	for i := 0; i < 10000 && !c.Done(); i++ {
		next := c.Tick(now, 1)
		now = max(next, now+1)
	}
	if !c.Done() || c.Retired() != 5 {
		t.Fatalf("done=%v retired=%d", c.Done(), c.Retired())
	}
}

func TestChainPenaltyExtendsLoadChain(t *testing.T) {
	mem := &penaltyMem{}
	ins := []trace.Instr{
		{Kind: trace.KindAtomic, Atomic: trace.AtomicAdd, Size: 8},
		{Kind: trace.KindLoad, Size: 8, Flags: trace.FlagDepPrev},
	}
	st := sim.NewStats()
	c := NewCore(0, DefaultConfig(), mem, ins, st)
	run(t, c)
	if mem.loadIssue < 50 {
		t.Fatalf("dependent load issued at %d, before the chain penalty", mem.loadIssue)
	}
}

// penaltyMem reports when the dependent load was issued.
type penaltyMem struct {
	loadIssue uint64
}

func (m *penaltyMem) Load(_ int, _ trace.Instr, at uint64) MemResult {
	m.loadIssue = at
	return MemResult{CompleteAt: at + 10}
}
func (m *penaltyMem) Store(_ int, _ trace.Instr, at uint64) MemResult {
	return MemResult{CompleteAt: at + 1}
}
func (m *penaltyMem) AtomicBlocking(int, trace.Instr) bool { return false }
func (m *penaltyMem) Atomic(_ int, _ trace.Instr, at uint64) AtomicResult {
	return AtomicResult{AcceptedAt: at + 2, CompleteAt: at + 30, OffChip: true, ChainPenalty: 50}
}
