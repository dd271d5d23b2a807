package check

import (
	"errors"
	"strings"
	"testing"
)

func TestOffRegistryIsNil(t *testing.T) {
	if r := NewRegistry(Off, 0); r != nil {
		t.Fatalf("NewRegistry(Off) = %v, want nil", r)
	}
}

func TestPeriodicSchedule(t *testing.T) {
	r := NewRegistry(Periodic, 100)
	var calls []uint64
	r.Register("stats", NoCore, func(now uint64) error {
		calls = append(calls, now)
		return nil
	})
	for now := uint64(0); now <= 450; now += 10 {
		if r.Due(now) {
			if f := r.Checkpoint(now); f != nil {
				t.Fatalf("unexpected failure: %v", f)
			}
		}
	}
	want := []uint64{100, 200, 300, 400}
	if len(calls) != len(want) {
		t.Fatalf("auditor ran at %v, want %v", calls, want)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Fatalf("auditor ran at %v, want %v", calls, want)
		}
	}
	// A large time jump advances the schedule past now, not one step.
	r.Checkpoint(5000)
	if r.Due(5000) || !r.Due(5100) {
		t.Fatal("schedule did not advance past a large time jump")
	}
}

func TestFailureContext(t *testing.T) {
	r := NewRegistry(Periodic, 0)
	base := errors.New("rob occupancy 9 exceeds capacity 8")
	r.Register("cache", NoCore, func(uint64) error { return nil })
	r.Register("cpu", 3, func(uint64) error { return base })
	f := r.Final(777)
	if f == nil {
		t.Fatal("expected a failure")
	}
	if f.Subsystem != "cpu" || f.Core != 3 || f.Cycle != 777 || !errors.Is(f, base) {
		t.Fatalf("failure context wrong: %+v", f)
	}
	msg := f.Error()
	for _, frag := range []string{"cpu", "cycle 777", "core 3", "rob occupancy"} {
		if !strings.Contains(msg, frag) {
			t.Fatalf("Error() = %q, missing %q", msg, frag)
		}
	}
	// Non-core failures omit the core clause.
	r2 := NewRegistry(Periodic, 0)
	r2.Register("hmc", NoCore, func(uint64) error { return base })
	if msg := r2.Final(1).Error(); strings.Contains(msg, "core") {
		t.Fatalf("NoCore failure mentions a core: %q", msg)
	}
}
