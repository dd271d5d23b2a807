package arena

import "testing"

func TestSlabTake(t *testing.T) {
	s := NewSlab[uint64](8)
	a := s.Take(3)
	b := s.Take(5)
	if len(a) != 3 || len(b) != 5 {
		t.Fatalf("lengths = %d, %d; want 3, 5", len(a), len(b))
	}
	for i := range a {
		a[i] = 7
	}
	for _, v := range b {
		if v != 0 {
			t.Fatalf("neighbouring sub-slice observed a write: %d", v)
		}
	}
	// Capacity is clipped: growing a sub-slice must reallocate rather
	// than overwrite its neighbour.
	a = append(a, 9)
	if b[0] != 0 {
		t.Fatalf("append into sub-slice aliased the next sub-slice")
	}
}

func TestSlabOverflowGrows(t *testing.T) {
	s := NewSlab[int](2)
	_ = s.Take(2)
	v := s.Take(4) // exceeds the pre-sized total
	if len(v) != 4 {
		t.Fatalf("overflow Take returned len %d, want 4", len(v))
	}
	for _, x := range v {
		if x != 0 {
			t.Fatalf("overflow Take returned non-zero element %d", x)
		}
	}
}

func TestSlabZeroLength(t *testing.T) {
	s := NewSlab[int](1)
	if v := s.Take(0); len(v) != 0 {
		t.Fatalf("Take(0) returned len %d", len(v))
	}
}
