// Package sim provides the low-level building blocks shared by every timing
// model in the simulator: the cycle clock, deterministic pseudo-random
// numbers, named statistic counters, and the wake table.
//
// One serial event loop (machine.Run) drives every component: it pops
// due cores off a Wakeups table in (time, core-id) order on a single
// goroutine, which keeps the whole simulation deterministic for a given
// seed and configuration.
package sim

import "fmt"

// CoreClockGHz is the frequency of the modeled host cores. All DRAM timing
// parameters expressed in nanoseconds are converted to core cycles with
// NsToCycles.
const CoreClockGHz = 2.0

// NsToCycles converts a duration in nanoseconds into core clock cycles,
// rounding up so that a timing constraint is never under-modeled.
func NsToCycles(ns float64) uint64 {
	c := ns * CoreClockGHz
	u := uint64(c)
	if float64(u) < c {
		u++
	}
	return u
}

// Clock is the global cycle counter. The zero value starts at cycle 0.
type Clock struct {
	cycle uint64
}

// Now returns the current cycle.
func (c *Clock) Now() uint64 { return c.cycle }

// Advance moves the clock forward by one cycle.
func (c *Clock) Advance() { c.cycle++ }

// Reset rewinds the clock to cycle zero.
func (c *Clock) Reset() { c.cycle = 0 }

// Rand is a small, fast, deterministic PRNG (xorshift64*). The simulator
// cannot use math/rand's global source because experiments must be exactly
// reproducible across runs and architectures.
type Rand struct {
	state uint64
}

// NewRand returns a PRNG seeded with seed. A zero seed is remapped to a
// fixed non-zero constant because xorshift has an all-zero fixed point.
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Rand{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() (x uint64) {
	*r, x = r.Next()
	return x
}

// Next is Uint64 on a value: it returns the advanced generator with the
// bits Uint64 would return, so a hot loop holding the generator in a
// local that is never addressed keeps the state in a register.
func (r Rand) Next() (Rand, uint64) {
	x := xorshift(r.state)
	return Rand{state: x}, x * 0x2545F4914F6CDD1D
}

// xorshift is one state transition of the generator.
func xorshift(x uint64) uint64 {
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	return x
}

// Skip advances the generator by n steps, leaving it exactly where n
// Uint64 calls would. The xorshift transition is linear over GF(2), so
// it is a 64×64 bit matrix T; Skip applies T^n by square-and-multiply,
// in O(64²·log n) word operations instead of n steps.
func (r *Rand) Skip(n uint64) {
	// t[i] is column i of T^(2^k): the image of state bit i.
	var t [64]uint64
	for i := range t {
		t[i] = xorshift(1 << i)
	}
	for ; n != 0; n >>= 1 {
		if n&1 != 0 {
			r.state = mulBits(&t, r.state)
		}
		var sq [64]uint64
		for i := range sq {
			sq[i] = mulBits(&t, t[i])
		}
		t = sq
	}
}

// mulBits multiplies the bit matrix with columns t by the bit vector x.
func mulBits(t *[64]uint64, x uint64) uint64 {
	var y uint64
	for i := 0; x != 0; i, x = i+1, x>>1 {
		if x&1 != 0 {
			y ^= t[i]
		}
	}
	return y
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("sim: Intn called with n=%d", n))
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
