package harness

import (
	"context"
	"testing"

	"graphpim/internal/check"
	"graphpim/internal/obs"
)

// cellEnv is a two-worker testEnv shrunk for the cell-path tests:
// 512-vertex LDBC graphs (ext-seed-stability's floor), 256-vertex
// application graphs, no sanitizer unless a test turns it on.
func cellEnv(t *testing.T) *Env {
	e := testEnv(t, 2)
	e.Vertices = 512
	e.AppVertices = 256
	e.SweepSizes = []int{512}
	e.Check = false
	return e
}

// runObserved runs one experiment and returns its table and records.
func runObserved(t *testing.T, e *Env, id string) (*Table, []obs.Record) {
	t.Helper()
	ex, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	tb, _, recs, err := e.RunExperimentObserved(context.Background(), ex)
	if err != nil {
		t.Fatal(err)
	}
	return tb, recs
}

// TestPolicyHostReachesEveryCell: under -policy host no cell of the
// experiments that build their own traces (the FD/RS applications,
// hybrid PMR coverage, seed stability, the Fig. 8 synthetic stream) may
// run an offload machine, so each GraphPIM column equals its baseline.
func TestPolicyHostReachesEveryCell(t *testing.T) {
	e := cellEnv(t)
	e.Policy = "host"
	for _, id := range []string{"fig17-realworld", "ext-hybrid-memory", "ext-seed-stability", "ext-dependent-block"} {
		tb, recs := runObserved(t, e, id)
		for _, r := range recs {
			if r.Config != string(KindBaseline) || r.ConfigName != "Baseline" {
				t.Fatalf("%s: cell %s/%s ran %s under -policy host", id, r.Workload, r.Config, r.ConfigName)
			}
		}
		if id == "fig17-realworld" {
			for _, row := range tb.Rows {
				if row[1] != "1.00x" || row[3] != "0.0%" {
					t.Fatalf("fig17 under -policy host: %v, want 1.00x and 0.0%%", row)
				}
			}
		}
	}
}

// depCycles maps each ext-dependent-block label to its baseline and
// GraphPIM cycles.
func depCycles(recs []obs.Record) map[string][2]uint64 {
	out := map[string][2]uint64{}
	for _, r := range recs {
		c := out[r.Workload]
		if r.Config == string(KindBaseline) {
			c[0] = r.Cycles
		} else {
			c[1] = r.Cycles
		}
		out[r.Workload] = c
	}
	return out
}

// TestDependentBlockFollowsMemory: on the PIM-less ddr backend the Fig. 8
// stream's GraphPIM machine degrades to the conventional datapath, so
// every K is cycle-equal to its baseline (1.00x).
func TestDependentBlockFollowsMemory(t *testing.T) {
	e := cellEnv(t)
	e.Memory = "ddr"
	tb, recs := runObserved(t, e, "ext-dependent-block")
	cycles := depCycles(recs)
	if len(cycles) != 3 {
		t.Fatalf("%d dependent-block labels, want 3", len(cycles))
	}
	for label, c := range cycles {
		if c[0] == 0 || c[0] != c[1] {
			t.Fatalf("%s on ddr: baseline %d cycles, GraphPIM %d", label, c[0], c[1])
		}
	}
	for _, row := range tb.Rows {
		if row[3] != "1.00x" {
			t.Fatalf("ext-dependent-block on ddr: %v, want 1.00x", row)
		}
	}
}

// TestDependentBlockIsChecked: with Env.Check every machine the Fig. 8
// experiment simulates runs the periodic sanitizer.
func TestDependentBlockIsChecked(t *testing.T) {
	calls := countSimulations(t)
	e := cellEnv(t)
	e.Check = true
	runObserved(t, e, "ext-dependent-block")
	got := calls()
	if len(got) != 6 {
		t.Fatalf("%d machines simulated, want 6 (3 K x baseline/GraphPIM)", len(got))
	}
	for k := range got {
		if k.cfg.Check != check.Periodic {
			t.Fatalf("a dependent-block machine ran with check level %v", k.cfg.Check)
		}
	}
}

// TestStaticLabelsPinTheirMachine: every static-kind label slot the
// engine's recording pass collects, over every experiment, carries the
// machine it resolved to, so a label can never silently name two.
func TestStaticLabelsPinTheirMachine(t *testing.T) {
	for _, policy := range []string{"", "pim"} {
		e := cellEnv(t)
		e.Policy = policy
		for _, ex := range append(All(), Extras()...) {
			if _, ok := e.record(ex); !ok {
				t.Fatalf("policy %q: recording %s failed", policy, ex.ID)
			}
		}
		e.mu.Lock()
		for k, s := range e.runs {
			if k.kind != KindAuto && s.cfg == nil {
				t.Errorf("policy %q: label %s has no pinned machine", policy, cellLabel(k))
			}
		}
		n := len(e.runs)
		e.mu.Unlock()
		if n == 0 {
			t.Fatalf("policy %q: recording collected no cells", policy)
		}
	}
}
