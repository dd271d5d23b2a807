package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNsToCycles(t *testing.T) {
	cases := []struct {
		ns   float64
		want uint64
	}{
		{0, 0},
		{0.5, 1},
		{1, 2},
		{13.75, 28}, // tCL at 2GHz: 27.5 cycles rounds up
		{27.5, 55},  // tRAS
	}
	for _, c := range cases {
		if got := NsToCycles(c.ns); got != c.want {
			t.Errorf("NsToCycles(%v) = %d, want %d", c.ns, got, c.want)
		}
	}
}

func TestClock(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("fresh clock at %d, want 0", c.Now())
	}
	for i := 0; i < 10; i++ {
		c.Advance()
	}
	if c.Now() != 10 {
		t.Fatalf("after 10 advances clock at %d", c.Now())
	}
	c.Reset()
	if c.Now() != 0 {
		t.Fatalf("after reset clock at %d", c.Now())
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed PRNGs diverged at step %d", i)
		}
	}
}

func TestRandZeroSeed(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a stuck PRNG")
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
	}
}

func TestRandIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestRandPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRand(seed)
		n := 1 + int(seed%64)
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStatsBasics(t *testing.T) {
	s := NewStats()
	s.Inc("a")
	s.Add("a", 2)
	s.Set("b", 10)
	if s.Get("a") != 3 || s.Get("b") != 10 || s.Get("missing") != 0 {
		t.Fatalf("unexpected counters: a=%d b=%d missing=%d", s.Get("a"), s.Get("b"), s.Get("missing"))
	}
	if r := s.Ratio("b", "a"); r < 3.32 || r > 3.34 {
		t.Fatalf("Ratio = %v, want ~3.33", r)
	}
	if r := s.Ratio("a", "zero"); !math.IsNaN(r) {
		t.Fatalf("Ratio with zero denominator = %v, want NaN", r)
	}
	names := s.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("Names = %v", names)
	}
}

func TestStatsOrderedSnapshot(t *testing.T) {
	s := NewStats()
	s.Set("z", 26)
	s.Set("a", 1)
	s.Set("m", 13)
	snap := s.OrderedSnapshot()
	if len(snap) != 3 {
		t.Fatalf("OrderedSnapshot has %d entries", len(snap))
	}
	want := []NamedValue{{"a", 1}, {"m", 13}, {"z", 26}}
	for i, kv := range snap {
		if kv != want[i] {
			t.Fatalf("OrderedSnapshot[%d] = %+v, want %+v", i, kv, want[i])
		}
	}
}

func TestStatsSnapshotIsCopy(t *testing.T) {
	s := NewStats()
	s.Set("x", 1)
	snap := s.Snapshot()
	snap["x"] = 99
	if s.Get("x") != 1 {
		t.Fatal("Snapshot aliases the live counters")
	}
}

// TestRandSkip checks the GF(2) jump-ahead against stepping: Skip(k)
// must leave the generator exactly where k Uint64 calls leave it.
func TestRandSkip(t *testing.T) {
	for _, k := range []uint64{0, 1, 63, 64, 65, 18*1000 + 5, 1 << 20} {
		for _, seed := range []uint64{0, 1, 0xdeadbeefcafef00d} {
			stepped, skipped := NewRand(seed), NewRand(seed)
			for i := uint64(0); i < k; i++ {
				stepped.Uint64()
			}
			skipped.Skip(k)
			if a, b := stepped.Uint64(), skipped.Uint64(); a != b {
				t.Fatalf("seed %#x: Skip(%d) then Uint64 = %#x, stepping gives %#x", seed, k, b, a)
			}
		}
	}
}
