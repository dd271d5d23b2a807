package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"graphpim/internal/memmap"
)

// Trace format v2 ("GPIMTRC2"): a chunked, delta/varint-compressed
// stream, and the only trace format the program reads or writes (the
// flat v1 layout, "GPIMTRC1", is no longer read). A v2 file is a log of
// per-thread chunks whose payloads encode records compactly (addresses
// as zigzag deltas against the previous address in the same chunk,
// batch lengths as varints), interleaved in emission order. The
// chunk log is what makes streaming work in bounded memory: the producer
// spills chunks as threads fill them, and replay decodes one bounded
// window per thread at a time. Checkpoint tags mark barrier boundaries —
// every thread's position at a checkpoint falls on one of its chunk
// boundaries (the writer force-flushes at barriers), so a replay can
// seek to any barrier without decoding the prefix.
//
// Layout (little endian):
//
//	magic        [8]byte  "GPIMTRC2"
//	threads      uint32
//	chunkRecords uint32               // writer's flush threshold; bounds decode windows
//	chunk log: repeated
//	  tag 0x01: uvarint thread, uvarint count, uvarint bytes, payload
//	  tag 0x02: checkpoint (barrier boundary; no operands)
//	  tag 0x00: end of log
//	footer:
//	  uvarint ranges, ranges x { uvarint base, uvarint size }   // PMR ranges
//	  threads x { uvarint records, uvarint instrs, uvarint atomics }
//	  5 x uvarint                     // record counts per Kind
//	  9 x uvarint                     // atomic records per HostAtomic form
//	  uvarint checkpoints
//	  magic [8]byte "GPIMTRCE"
//
// Payload record encoding: a lead byte kind|flags<<3, then per kind:
// compute -> uvarint N; load/store -> size u8, region u8, zigzag addr
// delta; atomic -> form u8, size u8, region u8, zigzag addr delta;
// barrier -> nothing. The delta base resets to zero at every chunk start
// so chunks decode independently. Only canonical records — fields unused
// by a kind left zero, exactly what Builder emits — are encodable;
// decoding validates every field range (validateInstr).

var (
	traceMagicV1    = [8]byte{'G', 'P', 'I', 'M', 'T', 'R', 'C', '1'}
	traceMagicV2    = [8]byte{'G', 'P', 'I', 'M', 'T', 'R', 'C', '2'}
	traceMagicV2End = [8]byte{'G', 'P', 'I', 'M', 'T', 'R', 'C', 'E'}
)

const (
	tagEnd        = 0x00
	tagChunk      = 0x01
	tagCheckpoint = 0x02

	// numAtomicForms sizes the per-HostAtomic count arrays (footer and
	// chunk-log tallies); it must track the end of the HostAtomic enum.
	numAtomicForms = int(AtomicMax) + 1

	// DefaultChunkRecords is the streaming builder's flush threshold: the
	// record count at which a thread's buffered records are spilled as one
	// chunk. At 16 bytes per decoded record a replay window costs ~64KiB
	// per thread.
	DefaultChunkRecords = 4096

	// maxChunkRecords bounds the chunk size a reader accepts, so a corrupt
	// header cannot make decode windows unbounded.
	maxChunkRecords = 1 << 20

	// maxRecordBytes is the widest possible v2 record encoding: lead byte,
	// three fixed bytes, and a 10-byte varint delta.
	maxRecordBytes = 14
)

// flagMask is every defined Instr flag bit.
const flagMask = FlagDepPrev | FlagRetUsed | FlagCASFail

// validateInstr checks every enum-like field of a record against its
// defined range. The decoder rejects invalid records at open time: the
// machine indexes per-region counter arrays by Region and switches on
// Kind, so a corrupt record must fail the load, not replay as garbage
// (or panic) later.
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

// zigzag maps signed address deltas onto small varints regardless of
// direction.
func zigzag(v int64) uint64   { return uint64(v)<<1 ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendRecord encodes one record, returning the updated buffer and delta
// base. Non-canonical records (fields set that the kind does not carry)
// are rejected: they would not survive the round trip.
func appendRecord(dst []byte, in Instr, prev memmap.Addr) ([]byte, memmap.Addr, error) {
	if err := validateInstr(in); err != nil {
		return dst, prev, err
	}
	b0 := byte(in.Kind) | in.Flags<<3
	switch in.Kind {
	case KindCompute:
		if in.Addr != 0 || in.Size != 0 || in.Atomic != AtomicNone || in.Region != 0 {
			return dst, prev, fmt.Errorf("non-canonical compute record %+v", in)
		}
		dst = append(dst, b0)
		dst = binary.AppendUvarint(dst, uint64(in.N))
	case KindLoad, KindStore:
		if in.N != 0 || in.Atomic != AtomicNone {
			return dst, prev, fmt.Errorf("non-canonical %v record %+v", in.Kind, in)
		}
		dst = append(dst, b0, in.Size, byte(in.Region))
		dst = binary.AppendUvarint(dst, zigzag(int64(in.Addr-prev)))
		prev = in.Addr
	case KindAtomic:
		if in.N != 0 {
			return dst, prev, fmt.Errorf("non-canonical atomic record %+v", in)
		}
		dst = append(dst, b0, byte(in.Atomic), in.Size, byte(in.Region))
		dst = binary.AppendUvarint(dst, zigzag(int64(in.Addr-prev)))
		prev = in.Addr
	case KindBarrier:
		if in.Addr != 0 || in.N != 0 || in.Size != 0 || in.Atomic != AtomicNone || in.Region != 0 || in.Flags != 0 {
			return dst, prev, fmt.Errorf("non-canonical barrier record %+v", in)
		}
		dst = append(dst, b0)
	}
	return dst, prev, nil
}

// decodeChunk decodes count records of a chunk payload into dst,
// validating every field range. The delta base starts at zero.
func decodeChunk(dst []Instr, payload []byte, count int) ([]Instr, error) {
	var prev memmap.Addr
	p := payload
	for i := 0; i < count; i++ {
		if len(p) == 0 {
			return dst, fmt.Errorf("record %d: truncated payload", i)
		}
		b0 := p[0]
		p = p[1:]
		in := Instr{Kind: Kind(b0 & 0x07), Flags: b0 >> 3}
		switch in.Kind {
		case KindCompute:
			n, w := binary.Uvarint(p)
			if w <= 0 || n > 65535 {
				return dst, fmt.Errorf("record %d: bad compute length", i)
			}
			p = p[w:]
			in.N = uint16(n)
		case KindLoad, KindStore, KindAtomic:
			if in.Kind == KindAtomic {
				if len(p) < 1 {
					return dst, fmt.Errorf("record %d: truncated atomic form", i)
				}
				in.Atomic = HostAtomic(p[0])
				p = p[1:]
			}
			if len(p) < 2 {
				return dst, fmt.Errorf("record %d: truncated memory record", i)
			}
			in.Size, in.Region = p[0], memmap.Region(p[1])
			p = p[2:]
			d, w := binary.Uvarint(p)
			if w <= 0 {
				return dst, fmt.Errorf("record %d: bad address delta", i)
			}
			p = p[w:]
			prev += memmap.Addr(unzigzag(d))
			in.Addr = prev
		case KindBarrier:
		default:
			return dst, fmt.Errorf("record %d: invalid kind %d", i, b0&0x07)
		}
		if err := validateInstr(in); err != nil {
			return dst, fmt.Errorf("record %d: %w", i, err)
		}
		dst = append(dst, in)
	}
	if len(p) != 0 {
		return dst, fmt.Errorf("%d trailing payload bytes after %d records", len(p), count)
	}
	return dst, nil
}

// chunkRef locates one chunk in the backing file, with cumulative counts
// at its start so suffix cursors (checkpoint seeks) know their totals.
type chunkRef struct {
	off   int64  // payload offset
	bytes int32  // payload length
	count int32  // records in the chunk
	start Counts // cumulative thread counts before this chunk
}

// logIndex is everything a replay needs of a v2 log besides its bytes:
// chunk locations, totals, checkpoints and PMR ranges. The writer builds
// it as it encodes, and OpenStream rebuilds it by scanning a file.
type logIndex struct {
	chunkCap    int
	chunks      [][]chunkRef
	counts      []Counts
	checkpoints [][]uint64
	kinds       [5]uint64
	atomics     [numAtomicForms]uint64
	ranges      [][2]memmap.Addr
}

func newLogIndex(threads, chunkCap int) logIndex {
	return logIndex{
		chunkCap: chunkCap,
		chunks:   make([][]chunkRef, threads),
		counts:   make([]Counts, threads),
	}
}

// addChunk indexes thread tid's chunk recs, whose nbytes of payload
// start at file offset off.
func (ix *logIndex) addChunk(tid int, off int64, nbytes int, recs []Instr) {
	ix.chunks[tid] = append(ix.chunks[tid], chunkRef{
		off:   off,
		bytes: int32(nbytes),
		count: int32(len(recs)),
		start: ix.counts[tid],
	})
	for _, in := range recs {
		ix.counts[tid].add(in)
		ix.kinds[in.Kind]++
		if in.Kind == KindAtomic {
			ix.atomics[in.Atomic]++
		}
	}
}

// markCheckpoint records every thread's current position as a barrier
// checkpoint.
func (ix *logIndex) markCheckpoint() {
	pos := make([]uint64, len(ix.counts))
	for t := range pos {
		pos[t] = ix.counts[t].Records
	}
	ix.checkpoints = append(ix.checkpoints, pos)
}

// chunkMsg travels from the producing (workload) goroutine to the encoder
// goroutine. A nil recs with checkpoint set marks a barrier boundary.
type chunkMsg struct {
	tid        int
	recs       []Instr
	checkpoint bool
}

// StreamWriter encodes a v2 chunk log as chunks arrive. Encoding and IO
// run on a dedicated encoder goroutine fed through a bounded channel —
// the fixed-size chunk ring between the workload's functional execution
// and the spill file — so trace generation overlaps compression. The
// writer never blocks generation for longer than the ring bound.
type StreamWriter struct {
	threads int
	ch      chan chunkMsg
	free    chan []Instr
	done    chan struct{}

	// space is set by Finalize before the channel close that hands it to
	// the encoder goroutine (close is the synchronization edge).
	space *memmap.AddressSpace

	// Encoder-goroutine-owned state (chunkCap aside, which never
	// changes); the producer reads it only after <-done in Finalize.
	logIndex
	bw  *bufio.Writer
	off int64
	err error
	raw []byte
	dst io.Writer
}

// NewStreamWriter starts a v2 writer over w for numThreads threads.
// chunkRecords is the flush threshold readers will size decode windows
// by (0 selects DefaultChunkRecords); it must match the builder's.
func NewStreamWriter(w io.Writer, numThreads, chunkRecords int) (*StreamWriter, error) {
	if numThreads <= 0 || numThreads > 1024 {
		return nil, fmt.Errorf("trace: implausible thread count %d", numThreads)
	}
	if chunkRecords == 0 {
		chunkRecords = DefaultChunkRecords
	}
	if chunkRecords < 0 || chunkRecords > maxChunkRecords {
		return nil, fmt.Errorf("trace: chunk size %d outside (0, %d]", chunkRecords, maxChunkRecords)
	}
	sw := &StreamWriter{
		threads:  numThreads,
		ch:       make(chan chunkMsg, 2*numThreads),
		free:     make(chan []Instr, 2*numThreads),
		done:     make(chan struct{}),
		logIndex: newLogIndex(numThreads, chunkRecords),
		bw:       bufio.NewWriterSize(w, 1<<20),
		dst:      w,
	}
	var hdr [16]byte
	copy(hdr[:8], traceMagicV2[:])
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(numThreads))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(chunkRecords))
	if _, err := sw.bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	sw.off = int64(len(hdr))
	go sw.encodeLoop()
	return sw, nil
}

// buffer returns a record buffer for the producer, recycling spent chunk
// buffers from the encoder when available.
func (w *StreamWriter) buffer() []Instr {
	select {
	case b := <-w.free:
		return b[:0]
	default:
		return make([]Instr, 0, w.chunkCap+8)
	}
}

// chunk hands one thread's buffered records to the encoder. Ownership of
// recs transfers; the encoder recycles it through the free list.
func (w *StreamWriter) chunk(tid int, recs []Instr) {
	if len(recs) == 0 {
		return
	}
	w.ch <- chunkMsg{tid: tid, recs: recs}
}

// checkpoint marks a barrier boundary in the chunk log. The caller must
// have flushed every thread completely first, so each thread's position
// is a chunk boundary.
func (w *StreamWriter) checkpoint() {
	w.ch <- chunkMsg{checkpoint: true}
}

// encodeLoop is the encoder goroutine: it drains the ring, encodes each
// chunk, and appends it to the log. After the first error it keeps
// draining (so the producer never blocks) but writes nothing more.
func (w *StreamWriter) encodeLoop() {
	defer close(w.done)
	for msg := range w.ch {
		if w.err != nil {
			w.recycle(msg.recs)
			continue
		}
		if msg.checkpoint {
			w.err = w.writeCheckpoint()
			continue
		}
		w.err = w.writeChunk(msg.tid, msg.recs)
		w.recycle(msg.recs)
	}
	if w.err != nil {
		return
	}
	w.err = w.writeFooter()
}

func (w *StreamWriter) recycle(recs []Instr) {
	if recs == nil {
		return
	}
	select {
	case w.free <- recs:
	default:
	}
}

// write appends to the log tracking the byte offset.
func (w *StreamWriter) write(p []byte) error {
	n, err := w.bw.Write(p)
	w.off += int64(n)
	return err
}

func (w *StreamWriter) writeChunk(tid int, recs []Instr) error {
	if tid < 0 || tid >= w.threads {
		return fmt.Errorf("trace: chunk for thread %d of %d", tid, w.threads)
	}
	raw := w.raw[:0]
	var prev memmap.Addr
	var err error
	for _, in := range recs {
		if raw, prev, err = appendRecord(raw, in, prev); err != nil {
			return fmt.Errorf("trace: thread %d: %w", tid, err)
		}
	}
	w.raw = raw // keep the grown buffer

	var hdr [1 + 3*binary.MaxVarintLen64]byte
	hdr[0] = tagChunk
	n := 1
	n += binary.PutUvarint(hdr[n:], uint64(tid))
	n += binary.PutUvarint(hdr[n:], uint64(len(recs)))
	n += binary.PutUvarint(hdr[n:], uint64(len(raw)))
	if err := w.write(hdr[:n]); err != nil {
		return err
	}
	w.addChunk(tid, w.off, len(raw), recs)
	return w.write(raw)
}

func (w *StreamWriter) writeCheckpoint() error {
	w.markCheckpoint()
	return w.write([]byte{tagCheckpoint})
}

func (w *StreamWriter) writeFooter() error {
	if err := w.write([]byte{tagEnd}); err != nil {
		return err
	}
	var buf []byte
	var ranges [][2]memmap.Addr
	if w.space != nil {
		ranges = w.space.UCRanges()
	}
	buf = binary.AppendUvarint(buf, uint64(len(ranges)))
	for _, r := range ranges {
		buf = binary.AppendUvarint(buf, uint64(r[0]))
		buf = binary.AppendUvarint(buf, uint64(r[1]))
	}
	for _, c := range w.counts {
		buf = binary.AppendUvarint(buf, c.Records)
		buf = binary.AppendUvarint(buf, c.Instrs)
		buf = binary.AppendUvarint(buf, c.Atomics)
	}
	for _, n := range w.kinds {
		buf = binary.AppendUvarint(buf, n)
	}
	for _, n := range w.atomics {
		buf = binary.AppendUvarint(buf, n)
	}
	buf = binary.AppendUvarint(buf, uint64(len(w.checkpoints)))
	buf = append(buf, traceMagicV2End[:]...)
	if err := w.write(buf); err != nil {
		return err
	}
	return w.bw.Flush()
}

// Finalize closes the log, waits for the encoder to drain, and writes the
// footer carrying the PMR ranges of space (which are only final once the
// workload has run). When the underlying writer is also an io.ReaderAt —
// a spill file — the finalized log is returned as a replayable *Stream;
// otherwise the Stream is nil and only the bytes matter.
func (w *StreamWriter) Finalize(space *memmap.AddressSpace) (*Stream, error) {
	w.space = space
	close(w.ch)
	<-w.done
	if w.err != nil {
		return nil, w.err
	}
	ra, ok := w.dst.(io.ReaderAt)
	if !ok {
		return nil, nil
	}
	st := &Stream{ra: ra, logIndex: w.logIndex}
	if space != nil {
		st.ranges = space.UCRanges()
	}
	return st, nil
}

// Stream is a finalized v2 chunk log, the one trace form the program
// replays. It is immutable and safe to replay from many machines
// concurrently — each Cursor holds its own decode ring; the backing
// io.ReaderAt is accessed only through offset reads.
type Stream struct {
	ra io.ReaderAt
	logIndex
}

// NumThreads returns the thread count.
func (s *Stream) NumThreads() int { return len(s.chunks) }

// ThreadCounts returns thread t's stream totals.
func (s *Stream) ThreadCounts(t int) Counts { return s.counts[t] }

// TotalInstructions mirrors Trace.TotalInstructions.
func (s *Stream) TotalInstructions() uint64 {
	var n uint64
	for _, c := range s.counts {
		n += c.Instrs
	}
	return n
}

// CountKind mirrors Trace.CountKind.
func (s *Stream) CountKind(k Kind) uint64 {
	if int(k) >= len(s.kinds) {
		return 0
	}
	return s.kinds[k]
}

// AtomicsByKind mirrors Trace.AtomicsByKind.
func (s *Stream) AtomicsByKind() map[HostAtomic]uint64 {
	m := make(map[HostAtomic]uint64)
	for a, n := range s.atomics {
		if n > 0 {
			m[HostAtomic(a)] = n
		}
	}
	return m
}

// NumCheckpoints returns the number of barrier checkpoints in the log.
func (s *Stream) NumCheckpoints() int { return len(s.checkpoints) }

// Space rebuilds an address space carrying the stream's PMR ranges.
func (s *Stream) Space() *memmap.AddressSpace {
	space := memmap.NewAddressSpace()
	for _, r := range s.ranges {
		space.RestoreUncacheable(r[0], r[1])
	}
	return space
}

// Cursor returns a chunk-windowed cursor over thread t from the stream
// start. An out-of-range thread yields an empty cursor.
func (s *Stream) Cursor(thread int) Cursor {
	if thread < 0 || thread >= len(s.chunks) {
		return &sliceCursor{}
	}
	return s.cursorFrom(thread, 0)
}

// CursorAt returns a cursor over thread t starting at barrier checkpoint
// cp (0-based): the replayable suffix from that barrier on. Checkpoint
// positions always coincide with chunk boundaries, which is what makes
// the seek O(log chunks) instead of a prefix decode.
func (s *Stream) CursorAt(thread, cp int) (Cursor, error) {
	if cp < 0 || cp >= len(s.checkpoints) {
		return nil, fmt.Errorf("trace: checkpoint %d of %d", cp, len(s.checkpoints))
	}
	if thread < 0 || thread >= len(s.chunks) {
		return nil, fmt.Errorf("trace: thread %d of %d", thread, len(s.chunks))
	}
	pos := s.checkpoints[cp][thread]
	refs := s.chunks[thread]
	// Binary search for the chunk starting at pos.
	lo, hi := 0, len(refs)
	for lo < hi {
		mid := (lo + hi) / 2
		if refs[mid].start.Records < pos {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(refs) && refs[lo].start.Records != pos {
		return nil, fmt.Errorf("trace: checkpoint %d position %d is not a chunk boundary of thread %d", cp, pos, thread)
	}
	if lo == len(refs) && pos != s.counts[thread].Records {
		return nil, fmt.Errorf("trace: checkpoint %d position %d past thread %d end", cp, pos, thread)
	}
	return s.cursorFrom(thread, lo), nil
}

func (s *Stream) cursorFrom(thread, chunk int) Cursor {
	refs := s.chunks[thread][chunk:]
	total := s.counts[thread]
	if chunk > 0 || len(refs) == 0 {
		base := total
		if len(refs) > 0 {
			base = refs[0].start
		}
		total = total.sub(base)
	}
	return &streamCursor{s: s, refs: refs, total: total}
}

// streamCursor walks one thread's chunks, decoding each into a two-slot
// buffer ring: the window handed out stays valid while the next one is
// decoded into the other slot, and steady-state replay allocates nothing.
type streamCursor struct {
	s     *Stream
	refs  []chunkRef
	next  int
	total Counts
	bufs  [2][]Instr
	flip  int
	raw   []byte
}

func (c *streamCursor) NextWindow() []Instr {
	if c.next >= len(c.refs) {
		return nil
	}
	ref := c.refs[c.next]
	if cap(c.raw) < int(ref.bytes) {
		c.raw = make([]byte, ref.bytes)
	}
	raw := c.raw[:ref.bytes]
	if _, err := c.s.ra.ReadAt(raw, ref.off); err != nil {
		// The log was fully validated at open (or produced by our own
		// writer); a failing read of an immutable backing file is not
		// recoverable mid-replay.
		panic(fmt.Sprintf("trace: stream chunk read at %d: %v", ref.off, err))
	}
	// Size the slot up front: growing through append would overshoot
	// geometrically (4096 records land at cap 5120) and trip the decode
	// ring's AuditBounds invariant. ref.count was validated at open to
	// stay within the chunk bound, so this never exceeds it either.
	dst := c.bufs[c.flip]
	if cap(dst) < int(ref.count) {
		dst = make([]Instr, 0, ref.count)
	}
	buf, err := decodeChunk(dst[:0], raw, int(ref.count))
	if err != nil {
		panic(fmt.Sprintf("trace: stream chunk at %d: %v", ref.off, err))
	}
	c.bufs[c.flip] = buf
	c.flip ^= 1
	c.next++
	return buf
}

func (c *streamCursor) Counts() Counts { return c.total }

// AuditBounds verifies the cursor's memory-bound invariants: the chunk
// walk stays inside the index and the decode ring never grows past the
// advertised chunk size. The machine registers it with the sanitizer as
// the "stream" subsystem.
func (c *streamCursor) AuditBounds() error {
	if c.next < 0 || c.next > len(c.refs) {
		return fmt.Errorf("chunk position %d outside [0, %d]", c.next, len(c.refs))
	}
	for i, b := range c.bufs {
		if cap(b) > c.s.chunkCap+8 {
			return fmt.Errorf("decode buffer %d capacity %d exceeds chunk bound %d", i, cap(b), c.s.chunkCap)
		}
	}
	if cap(c.raw) > c.s.chunkCap*maxRecordBytes {
		return fmt.Errorf("raw buffer capacity %d exceeds encoded chunk bound %d", cap(c.raw), c.s.chunkCap*maxRecordBytes)
	}
	return nil
}

// WriteV2 serializes a materialized trace in format v2. Chunk boundaries
// in a converted file are size-based (no checkpoint tags). It remains for
// bench/ and as a test oracle; the program itself writes traces through a
// streaming Builder.
func WriteV2(w io.Writer, tr *Trace, space *memmap.AddressSpace) error {
	sw, err := NewStreamWriter(w, tr.NumThreads(), DefaultChunkRecords)
	if err != nil {
		return err
	}
	for t, recs := range tr.Threads {
		for len(recs) > 0 {
			n := len(recs)
			if n > DefaultChunkRecords {
				n = DefaultChunkRecords
			}
			buf := append(sw.buffer(), recs[:n]...)
			sw.chunk(t, buf)
			recs = recs[n:]
		}
	}
	_, err = sw.Finalize(space)
	return err
}

// countingReader tracks the byte offset of a sequential scan.
type countingReader struct {
	br  *bufio.Reader
	off int64
}

func (c *countingReader) ReadByte() (byte, error) {
	b, err := c.br.ReadByte()
	if err == nil {
		c.off++
	}
	return b, err
}

func (c *countingReader) readFull(p []byte) error {
	n, err := io.ReadFull(c.br, p)
	c.off += int64(n)
	return err
}

func (c *countingReader) uvarint() (uint64, error) {
	return binary.ReadUvarint(c)
}

// scanV2 reads a v2 log after its 8-byte magic, decoding and validating
// every chunk. The caller has consumed the magic, so the counter starts
// at 8: chunkRef offsets must be absolute file positions — replay
// cursors ReadAt the whole file, and the writer-side index (writeChunk)
// records them that way too.
func scanV2(r io.Reader) (*logIndex, error) {
	cr := &countingReader{br: bufio.NewReaderSize(r, 1<<20), off: 8}
	var hdr [8]byte
	if err := cr.readFull(hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading v2 header: %w", err)
	}
	threads := binary.LittleEndian.Uint32(hdr[0:4])
	chunkCap := binary.LittleEndian.Uint32(hdr[4:8])
	if threads == 0 || threads > 1024 {
		return nil, fmt.Errorf("trace: implausible thread count %d", threads)
	}
	if chunkCap == 0 || chunkCap > maxChunkRecords {
		return nil, fmt.Errorf("trace: implausible chunk size %d", chunkCap)
	}
	sc := newLogIndex(int(threads), int(chunkCap))
	var raw []byte
	var recs []Instr
	for {
		tag, err := cr.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("trace: reading tag at offset %d: %w", cr.off-1, err)
		}
		if tag == tagEnd {
			break
		}
		switch tag {
		case tagCheckpoint:
			sc.markCheckpoint()
		case tagChunk:
			at := cr.off - 1
			tid, err := cr.uvarint()
			if err != nil {
				return nil, fmt.Errorf("trace: chunk at offset %d: thread: %w", at, err)
			}
			if tid >= uint64(threads) {
				return nil, fmt.Errorf("trace: chunk at offset %d: thread %d of %d", at, tid, threads)
			}
			count, err := cr.uvarint()
			if err != nil {
				return nil, fmt.Errorf("trace: chunk at offset %d: count: %w", at, err)
			}
			nbytes, err := cr.uvarint()
			if err != nil {
				return nil, fmt.Errorf("trace: chunk at offset %d: length: %w", at, err)
			}
			// A chunk may exceed chunkCap by the handful of records a
			// barrier flush adds past the threshold.
			if count == 0 || count > uint64(chunkCap)+8 {
				return nil, fmt.Errorf("trace: chunk at offset %d: implausible record count %d (chunk size %d)", at, count, chunkCap)
			}
			if nbytes > count*maxRecordBytes {
				return nil, fmt.Errorf("trace: chunk at offset %d: %d payload bytes for %d records", at, nbytes, count)
			}
			if cap(raw) < int(nbytes) {
				raw = make([]byte, nbytes)
			}
			raw = raw[:nbytes]
			payloadOff := cr.off
			if err := cr.readFull(raw); err != nil {
				return nil, fmt.Errorf("trace: chunk at offset %d: payload: %w", at, err)
			}
			recs, err = decodeChunk(recs[:0], raw, int(count))
			if err != nil {
				return nil, fmt.Errorf("trace: chunk at offset %d: %w", at, err)
			}
			sc.addChunk(int(tid), payloadOff, int(nbytes), recs)
		default:
			return nil, fmt.Errorf("trace: unknown tag 0x%02x at offset %d", tag, cr.off-1)
		}
	}
	if err := sc.readFooter(cr); err != nil {
		return nil, err
	}
	return &sc, nil
}

func (sc *logIndex) readFooter(cr *countingReader) error {
	nranges, err := cr.uvarint()
	if err != nil {
		return fmt.Errorf("trace: footer ranges: %w", err)
	}
	if nranges > 1<<16 {
		return fmt.Errorf("trace: implausible range count %d", nranges)
	}
	for i := uint64(0); i < nranges; i++ {
		base, err := cr.uvarint()
		if err != nil {
			return fmt.Errorf("trace: footer range %d base: %w", i, err)
		}
		size, err := cr.uvarint()
		if err != nil {
			return fmt.Errorf("trace: footer range %d size: %w", i, err)
		}
		sc.ranges = append(sc.ranges, [2]memmap.Addr{memmap.Addr(base), memmap.Addr(size)})
	}
	for t := range sc.counts {
		var got Counts
		if got.Records, err = cr.uvarint(); err == nil {
			if got.Instrs, err = cr.uvarint(); err == nil {
				got.Atomics, err = cr.uvarint()
			}
		}
		if err != nil {
			return fmt.Errorf("trace: footer thread %d counts: %w", t, err)
		}
		if got != sc.counts[t] {
			return fmt.Errorf("trace: thread %d footer counts %+v disagree with chunk log %+v", t, got, sc.counts[t])
		}
	}
	for k := range sc.kinds {
		n, err := cr.uvarint()
		if err != nil {
			return fmt.Errorf("trace: footer kind counts: %w", err)
		}
		if n != sc.kinds[k] {
			return fmt.Errorf("trace: footer count for kind %v is %d, chunk log has %d", Kind(k), n, sc.kinds[k])
		}
	}
	for a := range sc.atomics {
		n, err := cr.uvarint()
		if err != nil {
			return fmt.Errorf("trace: footer atomic counts: %w", err)
		}
		if n != sc.atomics[a] {
			return fmt.Errorf("trace: footer count for atomic %v is %d, chunk log has %d", HostAtomic(a), n, sc.atomics[a])
		}
	}
	ncp, err := cr.uvarint()
	if err != nil {
		return fmt.Errorf("trace: footer checkpoint count: %w", err)
	}
	if ncp != uint64(len(sc.checkpoints)) {
		return fmt.Errorf("trace: footer claims %d checkpoints, chunk log has %d", ncp, len(sc.checkpoints))
	}
	var end [8]byte
	if err := cr.readFull(end[:]); err != nil {
		return fmt.Errorf("trace: footer end magic: %w", err)
	}
	if end != traceMagicV2End {
		return fmt.Errorf("trace: bad footer end magic %q", end[:])
	}
	return nil
}

// OpenStream opens a v2 trace file for streamed replay. The whole log is
// scanned and validated once (every chunk decoded, footer cross-checked)
// so that replay cursors never see invalid records; only chunk locations
// and totals stay resident afterwards.
func OpenStream(ra io.ReaderAt) (*Stream, error) {
	sec := io.NewSectionReader(ra, 0, 1<<62)
	var magic [8]byte
	if _, err := io.ReadFull(sec, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if magic == traceMagicV1 {
		return nil, fmt.Errorf("trace: legacy v1 trace (magic %q) is no longer read; regenerate it with `graphpim trace -save`", magic[:])
	}
	if magic != traceMagicV2 {
		return nil, fmt.Errorf("trace: not a v2 stream (magic %q)", magic[:])
	}
	ix, err := scanV2(sec)
	if err != nil {
		return nil, err
	}
	return &Stream{ra: ra, logIndex: *ix}, nil
}
