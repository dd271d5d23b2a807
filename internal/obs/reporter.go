package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Phase names one stage of the experiment engine's record → warm →
// replay scheme.
type Phase string

// The engine's phases, in execution order.
const (
	// PhasePlan is the recording pass that discovers an experiment's
	// cell plan without simulating.
	PhasePlan Phase = "plan"
	// PhaseWarm is the parallel fan-out that simulates the planned
	// cells.
	PhaseWarm Phase = "warm"
	// PhaseReplay is the final serial pass that assembles the table
	// from memoized results.
	PhaseReplay Phase = "replay"
)

// PhaseTiming is one phase's recorded wall time.
type PhaseTiming struct {
	Phase  Phase `json:"phase"`
	WallNs int64 `json:"wall_ns"`
}

// Reporter receives progress events from the experiment engine. All
// methods may be called from multiple goroutines at once (cell
// completions come straight off the worker pool), so implementations
// must be safe for concurrent use.
type Reporter interface {
	// PlanReady fires after the recording pass with the number of
	// cells the warm phase will fan out (0 when running serially or
	// when recording failed).
	PlanReady(id string, cells int)
	// CellFinish fires as each warmed cell completes, with its display
	// label and simulation wall time.
	CellFinish(id, cell string, d time.Duration)
	// ExperimentFinish fires when the table has been assembled, with
	// the number of cells the experiment touched and its total wall
	// time.
	ExperimentFinish(id string, cells int, d time.Duration)
}

// Nop is the silent Reporter.
type Nop struct{}

// PlanReady implements Reporter.
func (Nop) PlanReady(string, int) {}

// CellFinish implements Reporter.
func (Nop) CellFinish(string, string, time.Duration) {}

// ExperimentFinish implements Reporter.
func (Nop) ExperimentFinish(string, int, time.Duration) {}

// TextReporter renders a plain-text progress line per experiment: a
// carriage-return-updated cell counter while the warm phase fans out,
// then a completion line with the experiment's wall time. It is what
// the CLI shows on the TTY (stderr) unless -q is given.
type TextReporter struct {
	w io.Writer

	mu    sync.Mutex
	total map[string]int
	done  map[string]int
}

// NewTextReporter returns a TextReporter writing to w.
func NewTextReporter(w io.Writer) *TextReporter {
	return &TextReporter{
		w:     w,
		total: make(map[string]int),
		done:  make(map[string]int),
	}
}

// PlanReady implements Reporter.
func (r *TextReporter) PlanReady(id string, cells int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total[id] = cells
}

// CellFinish implements Reporter.
func (r *TextReporter) CellFinish(id, cell string, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.done[id]++
	fmt.Fprintf(r.w, "\r%s: %d/%d cells", id, r.done[id], r.total[id])
}

// ExperimentFinish implements Reporter.
func (r *TextReporter) ExperimentFinish(id string, cells int, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fmt.Fprintf(r.w, "\r%s: done in %s (%d cells)\n", id, d.Round(time.Millisecond), cells)
}
