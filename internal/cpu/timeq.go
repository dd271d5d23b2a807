package cpu

// timeq is a fixed-capacity bag of completion times backing the core's
// write buffer, MSHR file, and atomic queue. The legacy representation
// (a plain slice re-filtered through expire() every tick) rebuilt the
// slice even when nothing was due; timeq tracks its minimum incrementally
// so the per-tick expiry check is a single compare in the common case,
// and the O(capacity) compaction sweep runs only on ticks where an entry
// actually completes.
//
// Entry order is not meaningful — the core only ever asks for the count,
// the minimum (next completion), and, at fences, the maximum — so the
// sweep compacts in place without preserving insertion order.
type timeq struct {
	buf []uint64 // slots [0, n) hold live completion times
	n   int
	min uint64 // min over buf[:n]; ^uint64(0) when empty
}

// newTimeq returns an empty queue holding at most len(buf) entries in
// buf (NewCoreCursor carves one core's buffers from a single array).
func newTimeq(buf []uint64) timeq {
	return timeq{buf: buf, min: ^uint64(0)}
}

// len returns the number of live entries.
func (q *timeq) len() int { return q.n }

// empty reports whether the queue holds no entries.
func (q *timeq) empty() bool { return q.n == 0 }

// add records one completion time. The caller enforces the structural
// bound (WriteBufferSize, MSHRs, AtomicQueue) before dispatching; adding
// past capacity panics via the slice bounds check.
func (q *timeq) add(t uint64) {
	q.buf[q.n] = t
	q.n++
	if t < q.min {
		q.min = t
	}
}

// minT returns the earliest completion time, or ^uint64(0) when empty —
// the same sentinel the legacy minTime helper returned.
func (q *timeq) minT() uint64 { return q.min }

// maxT returns the latest completion time, or 0 when empty. Only fences
// (host atomics) ask for it, so a scan is fine off the per-tick path.
func (q *timeq) maxT() uint64 {
	var m uint64
	for i := 0; i < q.n; i++ {
		if q.buf[i] > m {
			m = q.buf[i]
		}
	}
	return m
}

// expire drops every entry with completion time <= now. When the tracked
// minimum is still in the future this is a single compare.
func (q *timeq) expire(now uint64) {
	if q.min > now {
		return
	}
	min := ^uint64(0)
	keep := 0
	for i := 0; i < q.n; i++ {
		t := q.buf[i]
		if t > now {
			q.buf[keep] = t
			keep++
			if t < min {
				min = t
			}
		}
	}
	q.n = keep
	q.min = min
}
