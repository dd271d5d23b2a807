package sim

import (
	"fmt"
	"math/bits"
)

// MaxActors is the most actors a Wakeups table holds: PopDue reports the
// actors due at one time as a bitmask of one uint64.
const MaxActors = 64

// never marks an actor with no scheduled wake time.
const never = ^uint64(0)

// Wakeups is the event queue of the event-driven simulation loop: one
// wake time per actor, keyed by a dense actor id (core id in the machine
// model), with ^uint64(0) meaning "not scheduled". Each actor has at most
// one scheduled wake time; Schedule sets or moves it in O(1), and PopDue
// removes every actor due at the earliest time, found by branch-free
// scans of the table, and returns them as a bitmask.
//
// Draining that mask in ascending id order serves actors in (time, id)
// order, which is load-bearing for determinism: actors scheduled for the
// same cycle are served in ascending id order, exactly the order the
// reference scan loop ticks cores, so event-driven replay is
// cycle-identical to it (see the equivalence property test in
// internal/machine). The mask is fixed before the drain because the
// machine only ever reschedules the actor it is serving, at a strictly
// later time.
//
// A table of at most 64 uint64s is one to eight host cache lines, so the
// scan costs less than the sift-up and sift-down of a binary heap at the
// machine's 16 cores.
type Wakeups struct {
	at []uint64 // actor id -> wake time, never when unscheduled
	n  int      // number of scheduled actors
}

// NewWakeups returns an empty queue for actor ids in [0, n). It panics
// for more than MaxActors actors.
func NewWakeups(n int) *Wakeups {
	if n > MaxActors {
		panic(fmt.Sprintf("sim: Wakeups holds at most %d actors, got %d", MaxActors, n))
	}
	w := &Wakeups{at: make([]uint64, n)}
	for i := range w.at {
		w.at[i] = never
	}
	return w
}

// Len returns the number of scheduled actors.
func (w *Wakeups) Len() int { return w.n }

// Scheduled reports whether id currently has a wake time.
func (w *Wakeups) Scheduled(id int) bool { return w.at[id] != never }

// Schedule sets id's wake time to t, inserting the actor if absent or
// moving it if already queued. t = ^uint64(0) is reserved to mean "not
// scheduled" and panics.
func (w *Wakeups) Schedule(id int, t uint64) {
	if t == never {
		panic("sim: wake time ^uint64(0) is reserved")
	}
	if w.at[id] == never {
		w.n++
	}
	w.at[id] = t
}

// min returns the earliest wake time in the table, never when empty.
func (w *Wakeups) min() uint64 {
	m := never
	for _, t := range w.at {
		m = min(m, t)
	}
	return m
}

// Min returns the earliest scheduled wake time; ok is false when the
// queue is empty.
func (w *Wakeups) Min() (t uint64, ok bool) {
	t = w.min()
	return t, t != never
}

// PopMin removes and returns the (time, id)-smallest entry. It panics on
// an empty queue; guard with Len or Min.
func (w *Wakeups) PopMin() (id int, t uint64) {
	t = w.min()
	if t == never {
		panic("sim: PopMin on an empty Wakeups")
	}
	for id = range w.at {
		if w.at[id] == t {
			break
		}
	}
	w.at[id] = never
	w.n--
	return id, t
}

// PopDue removes every actor due at the earliest scheduled time t and
// returns t with the due actors as a bitmask (bit id set). due is 0 when
// the queue is empty. Serving the mask in ascending bit order is the
// (time, id) order of repeated PopMin calls at t.
//
// The scan is branch-free: one pass takes the minimum, a second builds
// the mask. Only the due actors' slots are then written back.
func (w *Wakeups) PopDue() (t, due uint64) {
	t = w.min()
	if t == never {
		return t, 0
	}
	for id, at := range w.at {
		due |= b2u(at == t) << (uint(id) & 63)
	}
	for m := due; m != 0; m &= m - 1 {
		w.at[bits.TrailingZeros64(m)] = never
	}
	w.n -= bits.OnesCount64(due)
	return t, due
}

// b2u is 1 for true and 0 for false; the compiler lowers it to a flag
// set, not a branch.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
