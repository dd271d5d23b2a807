package trace

import "unsafe"

// Instr promises to stay 16 bytes: every decode window and builder chunk
// buffer holds DefaultChunkRecords of them per thread, and the replay
// memory bound is quoted in those terms. The array length below is a
// constant expression, so any field change that grows or shrinks the
// struct fails to compile here rather than silently bloating them.
var _ [16]byte = [unsafe.Sizeof(Instr{})]byte{}
var _ [unsafe.Sizeof(Instr{})]byte = [16]byte{}
