package sim

// Wakeups is an indexed min-heap of wake times keyed by a dense actor id
// (core id in the machine model). It is the event queue of the
// event-driven simulation loop: each actor has at most one scheduled wake
// time, Schedule inserts or moves it in O(log n), and PopMin yields due
// actors ordered by (time, id).
//
// The (time, id) order is load-bearing for determinism: actors scheduled
// for the same cycle are served in ascending id order, which is exactly
// the order the legacy scan loop ticked cores. Event-driven replay is
// therefore cycle-identical to the scan loop (see the equivalence
// property test in internal/machine).
type Wakeups struct {
	heap []int32  // actor ids, heap-ordered by (at[id], id)
	pos  []int32  // actor id -> index in heap, -1 when unscheduled
	at   []uint64 // actor id -> scheduled wake time (valid when pos >= 0)
}

// NewWakeups returns an empty queue for actor ids in [0, n).
func NewWakeups(n int) *Wakeups {
	w := &Wakeups{
		heap: make([]int32, 0, n),
		pos:  make([]int32, n),
		at:   make([]uint64, n),
	}
	for i := range w.pos {
		w.pos[i] = -1
	}
	return w
}

// Len returns the number of scheduled actors.
func (w *Wakeups) Len() int { return len(w.heap) }

// Scheduled reports whether id currently has a wake time.
func (w *Wakeups) Scheduled(id int) bool { return w.pos[id] >= 0 }

// Schedule sets id's wake time to t, inserting the actor if absent or
// moving it if already queued.
func (w *Wakeups) Schedule(id int, t uint64) {
	if i := w.pos[id]; i >= 0 {
		old := w.at[id]
		w.at[id] = t
		if t < old {
			w.up(int(i))
		} else if t > old {
			w.down(int(i))
		}
		return
	}
	w.at[id] = t
	w.pos[id] = int32(len(w.heap))
	w.heap = append(w.heap, int32(id))
	w.up(len(w.heap) - 1)
}

// Min returns the earliest scheduled wake time; ok is false when the
// queue is empty.
func (w *Wakeups) Min() (t uint64, ok bool) {
	if len(w.heap) == 0 {
		return 0, false
	}
	return w.at[w.heap[0]], true
}

// PopMin removes and returns the (time, id)-smallest entry. It panics on
// an empty queue; guard with Len or Min.
func (w *Wakeups) PopMin() (id int, t uint64) {
	root := w.heap[0]
	id, t = int(root), w.at[root]
	last := len(w.heap) - 1
	w.swap(0, last)
	w.heap = w.heap[:last]
	w.pos[root] = -1
	if last > 0 {
		w.down(0)
	}
	return id, t
}

func (w *Wakeups) less(i, j int) bool {
	a, b := w.heap[i], w.heap[j]
	ta, tb := w.at[a], w.at[b]
	return ta < tb || (ta == tb && a < b)
}

func (w *Wakeups) swap(i, j int) {
	w.heap[i], w.heap[j] = w.heap[j], w.heap[i]
	w.pos[w.heap[i]] = int32(i)
	w.pos[w.heap[j]] = int32(j)
}

func (w *Wakeups) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !w.less(i, parent) {
			break
		}
		w.swap(i, parent)
		i = parent
	}
}

func (w *Wakeups) down(i int) {
	n := len(w.heap)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && w.less(l, min) {
			min = l
		}
		if r < n && w.less(r, min) {
			min = r
		}
		if min == i {
			return
		}
		w.swap(i, min)
		i = min
	}
}
