package cpu

import (
	"fmt"
	"reflect"
	"testing"

	"graphpim/internal/memmap"
	"graphpim/internal/sim"
	"graphpim/internal/trace"
)

// randMem is a MemorySystem with seeded random latencies. Its answers
// depend only on the order of calls, so two cores replaying the same
// stream against equally seeded instances see the same memory exactly
// when they issue the same calls; the call log (kind, issue time) lets a
// test prove that they do.
type randMem struct {
	r       *sim.Rand
	hostPct int // share of atomics that execute as blocking host atomics
	log     []memCall
}

type memCall struct {
	kind trace.Kind
	at   uint64
}

func newRandMem(seed uint64, hostPct int) *randMem {
	return &randMem{r: sim.NewRand(seed), hostPct: hostPct}
}

func (m *randMem) lat(n int) uint64 { return uint64(m.r.Intn(n)) }

func (m *randMem) Load(_ int, _ trace.Instr, at uint64) MemResult {
	m.log = append(m.log, memCall{trace.KindLoad, at})
	return MemResult{CompleteAt: at + 1 + m.lat(300), OffChip: m.r.Intn(3) == 0}
}

func (m *randMem) Store(_ int, _ trace.Instr, at uint64) MemResult {
	m.log = append(m.log, memCall{trace.KindStore, at})
	return MemResult{CompleteAt: at + 1 + m.lat(120), OffChip: m.r.Intn(4) == 0}
}

// AtomicBlocking decides by address, so repeated queries for a stalled
// atomic agree with the eventual Atomic call.
func (m *randMem) AtomicBlocking(_ int, in trace.Instr) bool {
	return int(in.Addr%100) < m.hostPct
}

func (m *randMem) Atomic(c int, in trace.Instr, at uint64) AtomicResult {
	m.log = append(m.log, memCall{trace.KindAtomic, at})
	if m.AtomicBlocking(c, in) {
		lat := 5 + m.lat(200)
		return AtomicResult{
			Blocking:      true,
			AcceptedAt:    at,
			CompleteAt:    at + lat,
			InCacheCycles: m.lat(int(lat) + 20),
		}
	}
	acc := at + m.lat(8)
	res := AtomicResult{
		AcceptedAt: acc,
		CompleteAt: acc + 1 + m.lat(300),
		OffChip:    m.r.Intn(5) != 0,
	}
	if m.r.Intn(4) == 0 {
		res.ChainPenalty = m.lat(20)
	}
	return res
}

// randStream builds one thread's record stream covering every dispatch
// path: compute batches short, long (fast-forward) and empty, dependent
// and independent loads and stores, atomics with every flag, and
// barriers.
func randStream(r *sim.Rand, n int) []trace.Instr {
	var ins []trace.Instr
	for i := 0; i < n; i++ {
		var in trace.Instr
		if r.Intn(2) == 0 {
			in.Flags |= trace.FlagDepPrev
		}
		switch r.Intn(12) {
		case 0:
			in.Kind, in.N = trace.KindCompute, uint16(r.Intn(400))
		case 1, 2:
			in.Kind, in.N = trace.KindCompute, uint16(r.Intn(12))
		case 3, 4, 5:
			in.Kind = trace.KindLoad
		case 6, 7:
			in.Kind = trace.KindStore
		case 8, 9, 10:
			in.Kind, in.Atomic = trace.KindAtomic, trace.AtomicAdd
			if r.Intn(2) == 0 {
				in.Flags |= trace.FlagRetUsed
			}
			if r.Intn(5) == 0 {
				in.Atomic = trace.AtomicCAS
				in.Flags |= trace.FlagCASFail
			}
		case 11:
			in = trace.Instr{Kind: trace.KindBarrier}
		}
		in.Addr = memmap.Addr(8 * r.Intn(1<<12))
		in.Size = 8
		ins = append(ins, in)
	}
	return ins
}

// randConfig draws a small core so every resource limit binds often.
func randConfig(r *sim.Rand) Config {
	if r.Intn(3) == 0 {
		return DefaultConfig()
	}
	iw := 1 + r.Intn(6)
	return Config{
		IssueWidth:      iw,
		ALUWidth:        1 + r.Intn(iw),
		ROBSize:         2 + r.Intn(48),
		WriteBufferSize: 1 + r.Intn(8),
		MSHRs:           1 + r.Intn(8),
		AtomicQueue:     1 + r.Intn(8),
		CASFailFlush:    uint64(r.Intn(20)),
		FrontendBubble:  uint64(r.Intn(5)),
	}
}

// clockedCore is one core under a test clock: the cycle of its last
// tick and the wake time that tick returned.
type clockedCore struct {
	c     *Core
	stats *sim.Stats
	mem   *randMem
	last  uint64
	next  uint64
}

func newClockedCore(cfg Config, seed uint64, hostPct int, stream []trace.Instr) *clockedCore {
	st := sim.NewStats()
	mem := newRandMem(seed, hostPct)
	return &clockedCore{c: NewCore(0, cfg, mem, stream, st), stats: st, mem: mem}
}

// tick advances the core to now and, like the machine's loop, releases a
// barrier the tick parked on at the same cycle (a lone core is the last
// to arrive) with the next wake one cycle later.
func (k *clockedCore) tick(now uint64) {
	k.next = k.c.Tick(now, now-k.last)
	k.last = now
	if k.c.WaitingBarrier() {
		k.c.ReleaseBarrier(now)
		k.next = now + 1
	}
	if k.next <= now {
		k.next = now + 1
	}
}

func (k *clockedCore) state() string {
	return fmt.Sprintf("retired=%d reason=%v stats=%v", k.c.Retired(), k.c.LastReason(), k.stats.Snapshot())
}

// TestWakeTimesNeedNoOutsideHelp drives one core three ways against
// equally seeded random memories: at its own returned wake times only,
// at every cycle (a dense clock), and at its wake times plus random
// extra ticks (what other cores' events add in the machine). At every
// cycle the wake-driven core ticks, its Retired() and every cpu.*
// counter must equal the dense core's, and all three must issue the
// identical sequence of memory calls and finish at the same cycle (a
// tick that runs ahead is compared at the next one that does not). The
// dense clock is what proves that a wake time skips only cycles in which
// nothing observable happens. The dense core also runs stepwise — no
// compute run-ahead — so it dispatches every cycle in its own tick and
// is the per-cycle reference the run-ahead must reproduce.
func TestWakeTimesNeedNoOutsideHelp(t *testing.T) {
	r := sim.NewRand(7)
	trials := 200
	if testing.Short() {
		trials = 40
	}
	for trial := 0; trial < trials; trial++ {
		cfg := randConfig(r)
		stream := randStream(r, 1+r.Intn(300))
		seed := r.Uint64()
		hostPct := []int{0, 30, 100}[trial%3]
		label := fmt.Sprintf("trial %d (cfg %+v, host %d%%)", trial, cfg, hostPct)

		wake := newClockedCore(cfg, seed, hostPct, stream)
		dense := newClockedCore(cfg, seed, hostPct, stream)
		dense.c.stepwise = true
		jitter := newClockedCore(cfg, seed, hostPct, stream)
		jr := sim.NewRand(seed ^ 0x9e3779b97f4a7c15)

		var now uint64
		for ; ; now++ {
			if now > 10_000_000 {
				t.Fatalf("%s: no finish by cycle %d", label, now)
			}
			dense.tick(now)
			if !jitter.c.Done() && (now == jitter.next || jr.Intn(4) == 0) {
				jitter.tick(now)
			}
			if now == wake.next {
				wake.tick(now)
				// A tick that ran ahead has booked cycles the dense
				// core has yet to reach; the counters are cumulative, so
				// the next comparable tick (or the finish) checks them.
				if got, want := wake.state(), dense.state(); wake.c.ffUntil <= now+1 && got != want {
					t.Fatalf("%s: cycle %d:\nwake:  %s\ndense: %s", label, now, got, want)
				}
				if !wake.c.Done() && wake.next == ^uint64(0) {
					t.Fatalf("%s: cycle %d: live core returned no wake time", label, now)
				}
			}
			if dense.c.Done() {
				break
			}
		}
		if !wake.c.Done() || wake.last != now {
			t.Fatalf("%s: dense core done at %d, wake-driven core done=%v last tick %d",
				label, now, wake.c.Done(), wake.last)
		}
		for !jitter.c.Done() {
			jitter.tick(jitter.next)
		}
		if jitter.last != now || jitter.state() != dense.state() {
			t.Fatalf("%s: jittered clock diverged: done at %d (dense %d)\njitter: %s\ndense:  %s",
				label, jitter.last, now, jitter.state(), dense.state())
		}
		if !reflect.DeepEqual(wake.mem.log, dense.mem.log) || !reflect.DeepEqual(jitter.mem.log, dense.mem.log) {
			t.Fatalf("%s: memory call sequences diverge", label)
		}
	}
}
