package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"graphpim/internal/memmap"
)

// Legacy v1 binary trace format. Traces are written in the chunked v2
// format (WriteV2); Read still accepts v1 files, whose flat layout is
// (little endian):
//
//	magic   [8]byte  "GPIMTRC1"
//	threads uint32
//	ranges  uint32                 // uncacheable (PMR) ranges
//	ranges x { base uint64, size uint64 }
//	threads x { count uint64, count x instr[16] }
//
// Each instruction record is 16 bytes: addr u64, n u16, size u8, kind u8,
// atomic u8, region u8, flags u8, pad u8.

var traceMagic = [8]byte{'G', 'P', 'I', 'M', 'T', 'R', 'C', '1'}

// flagMask is every defined Instr flag bit.
const flagMask = FlagDepPrev | FlagRetUsed | FlagCASFail

// validateInstr checks every enum-like field of a decoded record against
// its defined range. Both trace formats reject invalid records at read
// time: the machine indexes per-region counter arrays by Region and
// switches on Kind, so a corrupt record must fail the load, not replay
// as garbage (or panic) later.
func validateInstr(in Instr) error {
	if in.Kind > KindBarrier {
		return fmt.Errorf("invalid kind %d", uint8(in.Kind))
	}
	if in.Atomic > AtomicMax {
		return fmt.Errorf("invalid atomic form %d", uint8(in.Atomic))
	}
	if in.Region > memmap.RegionProperty {
		return fmt.Errorf("invalid region %d", uint8(in.Region))
	}
	if in.Flags&^flagMask != 0 {
		return fmt.Errorf("invalid flags %#x", in.Flags)
	}
	return nil
}

func instrFromBytes(b []byte) Instr {
	return Instr{
		Addr:   memmap.Addr(binary.LittleEndian.Uint64(b[0:8])),
		N:      binary.LittleEndian.Uint16(b[8:10]),
		Size:   b[10],
		Kind:   Kind(b[11]),
		Atomic: HostAtomic(b[12]),
		Region: memmap.Region(b[13]),
		Flags:  b[14],
	}
}

// Read deserializes a v1 file or one written by WriteV2 (the magic
// selects the format), returning the trace and an address space carrying
// the original PMR ranges. Every record is validated; a corrupt file
// yields a positioned error, never an invalid in-memory trace.
func Read(r io.Reader) (*Trace, *memmap.AddressSpace, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if magic == traceMagicV2 {
		return readV2(br)
	}
	if magic != traceMagic {
		return nil, nil, fmt.Errorf("trace: bad magic %q", magic[:])
	}
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, nil, fmt.Errorf("trace: reading header: %w", err)
	}
	threads := binary.LittleEndian.Uint32(hdr[0:4])
	ranges := binary.LittleEndian.Uint32(hdr[4:8])
	if threads == 0 || threads > 1024 {
		return nil, nil, fmt.Errorf("trace: implausible thread count %d", threads)
	}

	space := memmap.NewAddressSpace()
	var u64 [8]byte
	for i := uint32(0); i < ranges; i++ {
		if _, err := io.ReadFull(br, u64[:]); err != nil {
			return nil, nil, fmt.Errorf("trace: reading range base: %w", err)
		}
		base := memmap.Addr(binary.LittleEndian.Uint64(u64[:]))
		if _, err := io.ReadFull(br, u64[:]); err != nil {
			return nil, nil, fmt.Errorf("trace: reading range size: %w", err)
		}
		size := memmap.Addr(binary.LittleEndian.Uint64(u64[:]))
		space.RestoreUncacheable(base, size)
	}

	tr := &Trace{Threads: make([][]Instr, threads)}
	buf := make([]byte, 16)
	for t := uint32(0); t < threads; t++ {
		if _, err := io.ReadFull(br, u64[:]); err != nil {
			return nil, nil, fmt.Errorf("trace: reading thread %d length: %w", t, err)
		}
		count := binary.LittleEndian.Uint64(u64[:])
		if count > 1<<31 {
			return nil, nil, fmt.Errorf("trace: implausible stream length %d", count)
		}
		// Never pre-size from an untrusted header: a corrupt length must
		// not allocate gigabytes before the read loop hits EOF.
		capHint := count
		if capHint > 1<<16 {
			capHint = 1 << 16
		}
		stream := make([]Instr, 0, capHint)
		for i := uint64(0); i < count; i++ {
			if _, err := io.ReadFull(br, buf); err != nil {
				return nil, nil, fmt.Errorf("trace: reading thread %d instr %d: %w", t, i, err)
			}
			if buf[15] != 0 {
				return nil, nil, fmt.Errorf("trace: thread %d instr %d: nonzero pad byte %#x", t, i, buf[15])
			}
			in := instrFromBytes(buf)
			if err := validateInstr(in); err != nil {
				return nil, nil, fmt.Errorf("trace: thread %d instr %d: %w", t, i, err)
			}
			stream = append(stream, in)
		}
		tr.Threads[t] = stream
	}
	return tr, space, nil
}

// readV2 materializes a v2 chunk log (magic already consumed) into a
// *Trace, reusing the streaming scanner for decoding and validation.
func readV2(br io.Reader) (*Trace, *memmap.AddressSpace, error) {
	tr := &Trace{}
	sc, err := scanV2(br, func(t int, recs []Instr) {
		for len(tr.Threads) <= t {
			tr.Threads = append(tr.Threads, nil)
		}
		tr.Threads[t] = append(tr.Threads[t], recs...)
	})
	if err != nil {
		return nil, nil, err
	}
	for len(tr.Threads) < len(sc.counts) {
		tr.Threads = append(tr.Threads, nil)
	}
	space := memmap.NewAddressSpace()
	for _, r := range sc.ranges {
		space.RestoreUncacheable(r[0], r[1])
	}
	return tr, space, nil
}
