// Package trace defines the instruction stream interface between the graph
// framework and the timing model.
//
// Workloads execute functionally (producing real BFS depths, PageRank
// values, ...) while emitting one compact Instr record per dynamic
// instruction of interest: compute batches, loads/stores tagged with the
// data component they touch (meta / structure / property), host atomic
// instructions, and barriers. The same trace is replayed under every
// machine configuration — exactly the paper's methodology, where the same
// binary runs and only the memory-region semantics differ.
package trace

import (
	"fmt"

	"graphpim/internal/hmcatomic"
	"graphpim/internal/memmap"
)

// Kind discriminates instruction records.
type Kind uint8

// Instruction kinds.
const (
	// KindCompute is a batch of N single-cycle ALU instructions.
	KindCompute Kind = iota
	// KindLoad is a memory read of Size bytes at Addr.
	KindLoad
	// KindStore is a memory write of Size bytes at Addr.
	KindStore
	// KindAtomic is a host atomic instruction (x86 "lock"-prefixed or an
	// equivalent compiler-generated instruction block) at Addr.
	KindAtomic
	// KindBarrier is a global synchronization point across all threads.
	KindBarrier
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCompute:
		return "compute"
	case KindLoad:
		return "load"
	case KindStore:
		return "store"
	case KindAtomic:
		return "atomic"
	case KindBarrier:
		return "barrier"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// HostAtomic enumerates the host atomic instruction forms that appear in
// graph workloads (Table II of the paper) plus the forms that cannot map
// to HMC 2.0 commands (Table III).
type HostAtomic uint8

// Host atomic instruction forms.
const (
	// AtomicNone marks non-atomic records.
	AtomicNone HostAtomic = iota
	// AtomicCAS is "lock cmpxchg" — maps to CAS-if-equal.
	AtomicCAS
	// AtomicAdd is "lock add"/"lock addw" — maps to dual signed add.
	AtomicAdd
	// AtomicSub is "lock subw" — maps to signed add of a negated value.
	AtomicSub
	// AtomicSwap is "xchg" — maps to SWAP16.
	AtomicSwap
	// AtomicMin is a compiler-generated CAS block implementing
	// fetch-and-min — maps to CAS-if-less.
	AtomicMin
	// AtomicFPAdd is a floating-point accumulate (a CAS loop on the
	// host). Offloadable only with the paper's FP extension.
	AtomicFPAdd
	// AtomicComplex is a multi-location or indirect update (dynamic
	// graph workloads). Never offloadable.
	AtomicComplex
	// AtomicMax is a compiler-generated CAS block implementing
	// fetch-and-max (GNN max-pooling aggregation) — maps to
	// CAS-if-greater. Appended after AtomicComplex so existing trace
	// files keep their on-disk atomic codes.
	AtomicMax
)

// String implements fmt.Stringer.
func (a HostAtomic) String() string {
	switch a {
	case AtomicNone:
		return "none"
	case AtomicCAS:
		return "lock cmpxchg"
	case AtomicAdd:
		return "lock add"
	case AtomicSub:
		return "lock sub"
	case AtomicSwap:
		return "xchg"
	case AtomicMin:
		return "cas-min block"
	case AtomicFPAdd:
		return "fp-add cas loop"
	case AtomicComplex:
		return "complex block"
	case AtomicMax:
		return "cas-max block"
	}
	return fmt.Sprintf("atomic(%d)", uint8(a))
}

// PIMOp returns the HMC command a host atomic translates to, and whether a
// translation exists given the command set (with or without the paper's FP
// extension).
func (a HostAtomic) PIMOp(extendedAtomics bool) (hmcatomic.Op, bool) {
	switch a {
	case AtomicCAS:
		return hmcatomic.CasEQ8, true
	case AtomicAdd, AtomicSub:
		return hmcatomic.TwoAdd8, true
	case AtomicSwap:
		return hmcatomic.Swap16, true
	case AtomicMin:
		return hmcatomic.CasLT16, true
	case AtomicMax:
		return hmcatomic.CasGT16, true
	case AtomicFPAdd:
		if extendedAtomics {
			return hmcatomic.ExtFPAdd64, true
		}
		return 0, false
	default:
		return 0, false
	}
}

// Instr flag bits.
const (
	// FlagDepPrev marks an instruction whose operands depend on the most
	// recent load or returning atomic in program order (Fig. 8's
	// dependent-instruction block).
	FlagDepPrev uint8 = 1 << iota
	// FlagRetUsed marks an atomic whose return value feeds later
	// instructions; a non-returning atomic can retire as soon as its
	// request is posted.
	FlagRetUsed
	// FlagCASFail marks an atomic whose comparison failed during
	// functional execution. The core model charges a speculation flush
	// for the mispredicted retry path.
	FlagCASFail
)

// Instr is one dynamic instruction record. The struct is kept at 16 bytes
// so that multi-million-instruction traces stay cheap.
type Instr struct {
	// Addr is the referenced byte address (memory records only).
	Addr memmap.Addr
	// N is the batch length for KindCompute records.
	N uint16
	// Size is the access size in bytes (memory records only).
	Size uint8
	// Kind is the record discriminator.
	Kind Kind
	// Atomic is the host atomic form for KindAtomic records.
	Atomic HostAtomic
	// Region tags which data component the address belongs to.
	Region memmap.Region
	// Flags holds Flag* bits.
	Flags uint8
}

// DepPrev reports whether FlagDepPrev is set.
func (i Instr) DepPrev() bool { return i.Flags&FlagDepPrev != 0 }

// RetUsed reports whether FlagRetUsed is set.
func (i Instr) RetUsed() bool { return i.Flags&FlagRetUsed != 0 }

// CASFailed reports whether FlagCASFail is set.
func (i Instr) CASFailed() bool { return i.Flags&FlagCASFail != 0 }

// Trace holds the per-thread instruction streams of one workload run.
//
// A trace is built once (single goroutine) and then replayed — possibly by
// many machines concurrently. Replay only reads Threads, so a frozen trace
// is safe to share; Freeze records that hand-off point and lets shared
// traces assert they are no longer being appended to.
type Trace struct {
	// Threads is indexed by logical thread (== simulated core).
	Threads [][]Instr

	frozen bool
}

// Freeze marks the trace immutable. Replay never mutates a trace; calling
// Freeze after build documents (and lets assertions enforce) that the
// builder has handed the trace off for concurrent replay. Freezing twice
// is a no-op.
func (t *Trace) Freeze() { t.frozen = true }

// Frozen reports whether Freeze has been called.
func (t *Trace) Frozen() bool { return t.frozen }

// NumThreads returns the thread count.
func (t *Trace) NumThreads() int { return len(t.Threads) }

// TotalInstructions returns the dynamic instruction count over all threads
// (compute batches expanded, barriers excluded).
func (t *Trace) TotalInstructions() uint64 {
	var n uint64
	for _, th := range t.Threads {
		for _, in := range th {
			switch in.Kind {
			case KindCompute:
				n += uint64(in.N)
			case KindBarrier:
				// synchronization, not an instruction
			default:
				n++
			}
		}
	}
	return n
}

// CountKind returns the number of records of the given kind across threads.
func (t *Trace) CountKind(k Kind) uint64 {
	var n uint64
	for _, th := range t.Threads {
		for _, in := range th {
			if in.Kind == k {
				n++
			}
		}
	}
	return n
}

// AtomicsByKind tallies atomic records per host form.
func (t *Trace) AtomicsByKind() map[HostAtomic]uint64 {
	m := make(map[HostAtomic]uint64)
	for _, th := range t.Threads {
		for _, in := range th {
			if in.Kind == KindAtomic {
				m[in.Atomic]++
			}
		}
	}
	return m
}
