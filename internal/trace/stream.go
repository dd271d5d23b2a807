package trace

// Streaming replay interface. The materialize-then-replay pipeline keeps
// every record of every thread in memory at once; for million-vertex
// graphs the trace — not the graph — dominates peak RSS. The streaming
// pipeline instead hands the machine a Source: per-thread Cursors that
// expose the stream one bounded window at a time, so live windows (a few
// chunks per thread), not the whole trace, bound memory.
//
// A materialized *Trace is itself a Source whose cursors return the whole
// thread slice as a single window, which is why the two pipelines replay
// byte-identically: the consumer sees the exact same record sequence
// either way, only the window boundaries differ — and window boundaries
// are invisible to the core model.

// Counts summarizes one thread's instruction stream.
type Counts struct {
	// Records is the number of Instr records.
	Records uint64
	// Instrs is the dynamic instruction count the stream expands to:
	// compute batches contribute N units, barriers contribute nothing,
	// every other record exactly one.
	Instrs uint64
	// Atomics is the number of KindAtomic records.
	Atomics uint64
}

// add accumulates one record.
func (c *Counts) add(in Instr) {
	c.Records++
	switch in.Kind {
	case KindCompute:
		c.Instrs += uint64(in.N)
	case KindBarrier:
	case KindAtomic:
		c.Instrs++
		c.Atomics++
	default:
		c.Instrs++
	}
}

// sub returns c minus b (a suffix count given a cumulative prefix).
func (c Counts) sub(b Counts) Counts {
	return Counts{Records: c.Records - b.Records, Instrs: c.Instrs - b.Instrs, Atomics: c.Atomics - b.Atomics}
}

// CountRecords tallies a record slice.
func CountRecords(recs []Instr) Counts {
	var c Counts
	for _, in := range recs {
		c.add(in)
	}
	return c
}

// Cursor feeds one thread's records to a consumer as contiguous windows.
//
// NextWindow returns the next non-empty block of records, or nil at end
// of stream. The returned slice is valid only until the next NextWindow
// call: streaming cursors decode into a fixed ring of reused buffers, so
// consumers must not retain windows. Counts returns the totals for the
// whole stream the cursor walks (known up front for both materialized
// and finalized streamed traces); the sanitizer checks retirement
// against it.
type Cursor interface {
	NextWindow() []Instr
	Counts() Counts
}

// Source is a per-thread collection of instruction streams the machine
// can replay: either a materialized *Trace or a chunked *Stream. Cursor
// may be called once per thread per replay; cursors from the same Source
// are independent and safe to advance from different goroutines.
type Source interface {
	NumThreads() int
	Cursor(thread int) Cursor
}

// Cursor returns a whole-slice cursor over thread t, making *Trace a
// Source. An out-of-range thread yields an empty cursor.
func (t *Trace) Cursor(thread int) Cursor {
	var recs []Instr
	if thread >= 0 && thread < len(t.Threads) {
		recs = t.Threads[thread]
	}
	return &sliceCursor{recs: recs}
}

// SliceCursor returns a Cursor that exposes recs as one single window.
func SliceCursor(recs []Instr) Cursor { return &sliceCursor{recs: recs} }

type sliceCursor struct {
	recs    []Instr
	done    bool
	n       Counts
	counted bool
}

func (c *sliceCursor) NextWindow() []Instr {
	if c.done || len(c.recs) == 0 {
		return nil
	}
	c.done = true
	return c.recs
}

// Counts is cached: the sanitizer consults it on every audit.
func (c *sliceCursor) Counts() Counts {
	if !c.counted {
		c.n = CountRecords(c.recs)
		c.counted = true
	}
	return c.n
}

// StripSource returns a Source view of src with every atomic replaced by
// a plain load followed by a dependent store of the same size — the
// paper's Fig. 4 micro-benchmark methodology ("including/excluding the
// atomic operations on the graph property"). The rewrite happens lazily
// per window and never touches src, so a streamed source stays streamed
// and a frozen trace stays shareable.
func StripSource(src Source) Source { return stripSource{src: src} }

type stripSource struct{ src Source }

func (s stripSource) NumThreads() int { return s.src.NumThreads() }

func (s stripSource) Cursor(thread int) Cursor {
	return &stripCursor{cur: s.src.Cursor(thread)}
}

type stripCursor struct {
	cur Cursor
	buf []Instr
}

func (c *stripCursor) NextWindow() []Instr {
	w := c.cur.NextWindow()
	if w == nil {
		return nil
	}
	out := c.buf[:0]
	for _, in := range w {
		if in.Kind != KindAtomic {
			out = append(out, in)
			continue
		}
		ld := in
		ld.Kind = KindLoad
		ld.Atomic = AtomicNone
		ld.Flags &^= FlagRetUsed | FlagCASFail
		st := ld
		st.Kind = KindStore
		st.Flags |= FlagDepPrev
		out = append(out, ld, st)
	}
	c.buf = out
	return out
}

func (c *stripCursor) Counts() Counts {
	n := c.cur.Counts()
	// Each atomic (one record, one instruction) becomes load + store
	// (two records, two instructions).
	return Counts{Records: n.Records + n.Atomics, Instrs: n.Instrs + n.Atomics}
}
