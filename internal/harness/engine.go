package harness

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"graphpim/internal/machine"
	"graphpim/internal/obs"
	"graphpim/internal/parallel"
)

// This file is the parallel experiment engine. Every figure in the paper
// is a grid of independent simulation cells — (workload, config,
// sweep-point, seed) tuples that each assemble their own machine with its
// own Stats, Clock, and Rand. The engine exploits that independence with
// a record → warm → replay scheme:
//
//  1. Record: run the experiment once with cell in recording mode.
//     Cells register themselves (in first-touch order) instead of
//     simulating, and return zero Results; the pass's table is thrown
//     away. Cell keys never depend on simulated values, so the recorded
//     plan is exactly the set of cells a serial run would compute.
//  2. Warm: fan the recorded plan across a parallel.ForEach worker pool.
//     Each cell's once-guard ensures it is simulated exactly once no
//     matter how many workers or experiments ask for it.
//  3. Replay: run the experiment again for real. Every cell is now a memo
//     hit, so the table assembles in the exact order — and with the exact
//     values — of a serial run: parallelism changes who computes, never
//     what.
//
// The scheme is fail-safe by construction: a cell the recording pass did
// not discover is simply computed inline during replay (less parallelism,
// same numbers), and if the recording pass panics the engine falls back
// to a plain serial run.
//
// The replay pass doubles as the observability export: cell registers
// every cell the experiment touches (first-touch order, deduplicated)
// in a second cellList, and RunExperimentObserved turns those cells into
// obs.Records — the memo key plus headline results plus the full
// counter snapshot. Because that list watches the replay rather than
// the plan, the export also covers cells the recording pass missed.

// plannedCell pairs a memoized run slot with the key it lives under, so
// the engine can label and export cells without an inverse map lookup.
type plannedCell struct {
	key  runKey
	slot *runSlot
}

// cellList collects the simulation cells an experiment touches, in
// first-touch order and deduplicated. The recording pass fills one as
// its plan; an observed replay pass fills another, whose cells carry
// final results because it observes real (memoized) execution.
type cellList struct {
	seen  map[*runSlot]bool
	cells []plannedCell
}

func (l *cellList) add(key runKey, s *runSlot) {
	if !l.seen[s] {
		l.seen[s] = true
		l.cells = append(l.cells, plannedCell{key: key, slot: s})
	}
}

// record runs ex in recording mode and returns its cell plan. A panic in
// the pass (an experiment that divides by a not-yet-simulated value, say)
// aborts recording; the caller then just runs serially.
func (e *Env) record(ex Experiment) (plan []plannedCell, ok bool) {
	rec := &cellList{seen: make(map[*runSlot]bool)}
	e.mu.Lock()
	e.rec = rec
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		e.rec = nil
		e.mu.Unlock()
		if recover() != nil {
			plan, ok = nil, false
		}
	}()
	ex.Run(e)
	return rec.cells, true
}

// reporter returns the Env's Reporter, or the silent one.
func (e *Env) reporter() obs.Reporter {
	if e.Reporter != nil {
		return e.Reporter
	}
	return obs.Nop{}
}

// cellLabel renders a run key as the short display label progress
// reporters show, e.g. "BFS/GraphPIM" or "PageRank/GraphPIM/fu8".
func cellLabel(k runKey) string {
	label := k.workload + "/" + string(k.kind)
	if k.variant != "" {
		label += "/" + k.variant
	}
	if k.vertices != 0 {
		label += fmt.Sprintf("@%d", k.vertices)
	}
	return label
}

// cellRecord exports one collected cell as an obs.Record. The slot has
// already been computed by the replay pass, so get() is a memo hit.
func cellRecord(exID string, c plannedCell) obs.Record {
	res := c.slot.get()
	ipc := math.NaN()
	if res.Cycles > 0 {
		ipc = float64(res.Instructions) / float64(res.Cycles)
	}
	return obs.Record{
		Experiment:   exID,
		Workload:     c.key.workload,
		Config:       string(c.key.kind),
		ConfigName:   res.Config,
		Variant:      c.key.variant,
		Extended:     c.key.extended,
		Vertices:     c.key.vertices,
		Seed:         c.key.seed,
		Cycles:       res.Cycles,
		Instructions: res.Instructions,
		IPC:          obs.Float(ipc),
		WallNs:       c.slot.wall.Nanoseconds(),
		Stats:        obs.CountersFromMap(res.Stats),
	}
}

// RunExperiment executes ex with e.Parallelism workers: the recorded cell
// plan is warmed in parallel, then the experiment replays serially over
// the memoized results, producing a table byte-for-byte identical to a
// serial run. ctx cancellation stops the warm pass early; the replay then
// computes the remaining cells inline (still correct, just serial). A
// non-nil error means the experiment could not be set up (e.g. a
// workload it needs is not registered); the table is nil then.
func (e *Env) RunExperiment(ctx context.Context, ex Experiment) (*Table, error) {
	t, _, _, err := e.RunExperimentObserved(ctx, ex)
	return t, err
}

// RunExperimentObserved is RunExperiment plus the observability export:
// it reports progress through e.Reporter and returns, alongside the
// table, the experiment's manifest entry (per-phase wall times) and one
// obs.Record per simulation cell the experiment touched, in first-touch
// replay order. The records are sufficient to regenerate the table
// without simulating (see PreloadRecords).
func (e *Env) RunExperimentObserved(ctx context.Context, ex Experiment) (*Table, obs.ExperimentRun, []obs.Record, error) {
	rep := e.reporter()
	start := time.Now()
	run := obs.ExperimentRun{ID: ex.ID, Paper: ex.Paper, Title: ex.Title}
	endPhase := func(p obs.Phase, d time.Duration) {
		run.Phases = append(run.Phases, obs.PhaseTiming{Phase: p, WallNs: d.Nanoseconds()})
	}

	if workers := parallel.Workers(e.Parallelism); workers > 1 {
		planStart := time.Now()
		plan, ok := e.record(ex)
		endPhase(obs.PhasePlan, time.Since(planStart))
		rep.PlanReady(ex.ID, len(plan))
		if ok {
			warmStart := time.Now()
			parallel.ForEachTimed(ctx, workers, len(plan),
				func(i int) { plan[i].slot.get() },
				func(i int, d time.Duration) { rep.CellFinish(ex.ID, cellLabel(plan[i].key), d) })
			endPhase(obs.PhaseWarm, time.Since(warmStart))
		}
	} else {
		rep.PlanReady(ex.ID, 0)
	}

	col := &cellList{seen: make(map[*runSlot]bool)}
	e.mu.Lock()
	e.col = col
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		e.col = nil
		e.mu.Unlock()
	}()
	replayStart := time.Now()
	table, err := replayExperiment(e, ex)
	endPhase(obs.PhaseReplay, time.Since(replayStart))
	if err != nil {
		return nil, run, nil, err
	}

	records := make([]obs.Record, 0, len(col.cells))
	for _, c := range col.cells {
		records = append(records, cellRecord(ex.ID, c))
	}
	run.Cells = len(records)
	wall := time.Since(start)
	run.WallNs = wall.Nanoseconds()
	rep.ExperimentFinish(ex.ID, len(records), wall)
	return table, run, records, nil
}

// replayExperiment runs ex for real, converting an experimentError panic
// (a setup failure such as an unregistered workload) into an ordinary
// error. Any other panic — including a *check.Failure from the sanitizer
// — propagates: those are bugs, not input errors.
func replayExperiment(e *Env, ex Experiment) (table *Table, err error) {
	defer func() {
		if r := recover(); r != nil {
			ee, ok := r.(experimentError)
			if !ok {
				panic(r)
			}
			table, err = nil, fmt.Errorf("experiment %s: %w", ex.ID, ee.err)
		}
	}()
	return ex.Run(e), nil
}

// PreloadRecords seeds the run memo with cells from a recorded run, so
// replaying an experiment over them regenerates its table without
// simulating. Cells already present (computed or preloaded) are left
// untouched; cells an experiment needs beyond the preloaded set are
// computed on demand as usual.
func (e *Env) PreloadRecords(recs []obs.Record) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.initLocked()
	for i := range recs {
		r := &recs[i]
		key := runKey{
			workload: r.Workload,
			vertices: r.Vertices,
			kind:     ConfigKind(r.Config),
			extended: r.Extended,
			variant:  r.Variant,
			seed:     r.Seed,
		}
		s, ok := e.runs[key]
		if !ok {
			s = &runSlot{}
			e.runs[key] = s
		}
		res := machine.Result{
			Config:       r.ConfigName,
			Cycles:       r.Cycles,
			Instructions: r.Instructions,
			Stats:        r.Stats.Map(),
		}
		s.once.Do(func() {
			s.res = res
			s.compute = nil
		})
	}
}

// Info captures the Env's configuration for a run manifest.
func (e *Env) Info() obs.EnvInfo {
	return obs.EnvInfo{
		Vertices:    e.Vertices,
		Seed:        e.Seed,
		Threads:     e.Threads,
		SweepSizes:  append([]int(nil), e.SweepSizes...),
		AppVertices: e.AppVertices,
		Parallelism: e.Parallelism,
		Memory:      e.Memory,
		Policy:      e.Policy,
		NumCPU:      runtime.NumCPU(),
		Gomaxprocs:  runtime.GOMAXPROCS(0),
	}
}

// EnvFromInfo rebuilds an Env equivalent to the one a manifest was
// produced under.
func EnvFromInfo(info obs.EnvInfo) *Env {
	return &Env{
		Vertices:    info.Vertices,
		Seed:        info.Seed,
		Threads:     info.Threads,
		SweepSizes:  append([]int(nil), info.SweepSizes...),
		AppVertices: info.AppVertices,
		Parallelism: info.Parallelism,
		Memory:      info.Memory,
		Policy:      info.Policy,
	}
}
