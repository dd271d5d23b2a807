package graph

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
)

// csrHash hashes a graph's full CSR content — vertex count, out
// adjacency with per-edge weights, and in adjacency — so any change in
// the edges a generator emits shows up as a different value, whatever
// the weight representation.
func csrHash(g *Graph) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(g.NumVertices()))
	for _, p := range g.outPtr {
		put(p)
	}
	for v := 0; v < g.NumVertices(); v++ {
		ws := g.OutWeights(VID(v))
		for i, d := range g.OutNeighbors(VID(v)) {
			put(uint64(d)<<32 | uint64(ws[i]))
		}
	}
	for _, p := range g.inPtr {
		put(p)
	}
	for _, s := range g.inSrc {
		put(uint64(s))
	}
	return h.Sum64()
}

// TestGeneratorGoldenHashes pins the exact graphs every generator stream
// produces. TestStreamEquivalence cannot catch a change in generator
// output, because both of its builders read the same stream; these
// hashes were recorded before the generators were last optimized, so a
// faster generator must still emit the same edges.
func TestGeneratorGoldenHashes(t *testing.T) {
	golden := map[string]uint64{
		"ldbc/1000/seed1":     0x9c7f0a9965276285,
		"ldbc/1000/seed7":     0x35b3d81d0fcbc749,
		"ldbc/10000/seed7":    0x74f1b685bfc0c30c,
		"rmat/1000/seed1":     0x40e8800a0c2e4855,
		"rmat/1000/seed7":     0xa01c103b95bbe697,
		"rmat/10000/seed7":    0x97439daa2a0a28c2,
		"er/1000/seed1":       0xcd80c568bfa6f1e7,
		"er/1000/seed7":       0x02a947d8a4931699,
		"er/10000/seed7":      0xc26f2d20319064b6,
		"bitcoin/1000/seed1":  0x2b71193e30fe61fb,
		"bitcoin/1000/seed7":  0xb02d2d05b86cb008,
		"bitcoin/10000/seed7": 0x15201f0e132e0abf,
		"twitter/1000/seed1":  0x2cadef5a2cab41ce,
		"twitter/1000/seed7":  0x8b916ff21b485dcf,
		"twitter/10000/seed7": 0x981203b85e71653e,
	}
	for _, gc := range generatorCases() {
		for _, c := range []struct {
			size int
			seed uint64
		}{{1000, 1}, {1000, 7}, {10000, 7}} {
			name := fmt.Sprintf("%s/%d/seed%d", gc.name, c.size, c.seed)
			t.Run(name, func(t *testing.T) {
				g, err := BuildStream(gc.stream(c.size, c.seed), gc.dedup)
				if err != nil {
					t.Fatalf("BuildStream: %v", err)
				}
				if got, want := csrHash(g), golden[name]; got != want {
					t.Errorf("CSR hash %#016x, want %#016x", got, want)
				}
			})
		}
	}
}
