package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"graphpim/internal/cache"
	"graphpim/internal/cpu"
	"graphpim/internal/gframe"
	"graphpim/internal/graph"
	"graphpim/internal/harness"
	"graphpim/internal/hmcatomic"
	"graphpim/internal/machine"
	"graphpim/internal/mem"
	"graphpim/internal/mem/hmcbackend"
	"graphpim/internal/memmap"
	"graphpim/internal/pou"
	"graphpim/internal/sim"
	"graphpim/internal/trace"
	"graphpim/internal/workloads"
)

// The layer pass times each layer of the simulator alone, on inputs
// captured from the replay-bfs and gnn-substrates workloads so that every
// layer sees realistic traffic:
//
//   - cpu: the cores replay the BFS trace against idealMemory, which
//     answers every access after a fixed latency and records the access
//     stream in dispatch order;
//   - cache: the hierarchy replays that access stream over fixedLatency;
//   - mem: each backend serves the requests, with their issue times, that
//     the BFS replays and a GNNMean replay sent to the HMC (the cache
//     pass's idealized times would overload the slower substrates);
//   - pou: the offloading unit routes every memory record of the trace.
//
// The per-operation costs, multiplied by the operation counts of a real
// replay, estimate each layer's share of that replay's wall time; what is
// left is the machine's own scheduling and glue.

// layerReps is how often each cheap layer measurement repeats; the median
// is reported.
const layerReps = 3

// idealLatency is idealMemory's answer time, in cycles.
const idealLatency = 4

// lineLatency is fixedLatency's fill latency, in cycles.
const lineLatency = 100

// access is one memory operation a core issued.
type access struct {
	at   uint64
	addr memmap.Addr
	core int32
	in   trace.Instr
}

// idealMemory is a cpu.MemorySystem without a memory system: every access
// completes after idealLatency cycles, atomics never block, and nothing
// is shared, so a core run against it costs only the core model.
type idealMemory struct {
	record bool
	log    []access
}

func (m *idealMemory) note(core int, in trace.Instr, at uint64) {
	if m.record {
		m.log = append(m.log, access{at: at, addr: in.Addr, core: int32(core), in: in})
	}
}

func (m *idealMemory) Load(core int, in trace.Instr, at uint64) cpu.MemResult {
	m.note(core, in, at)
	return cpu.MemResult{CompleteAt: at + idealLatency}
}

func (m *idealMemory) Store(core int, in trace.Instr, at uint64) cpu.MemResult {
	m.note(core, in, at)
	return cpu.MemResult{CompleteAt: at + idealLatency}
}

func (m *idealMemory) AtomicBlocking(int, trace.Instr) bool { return false }

func (m *idealMemory) Atomic(core int, in trace.Instr, at uint64) cpu.AtomicResult {
	m.note(core, in, at)
	return cpu.AtomicResult{AcceptedAt: at, CompleteAt: at + idealLatency}
}

// runCores replays tr on one core per thread against ms: a wake-time loop
// over Tick that releases all cores together once every live core waits
// at a barrier. It returns the instructions retired.
func runCores(cfg cpu.Config, ms cpu.MemorySystem, tr *trace.Trace) (uint64, error) {
	cores := make([]*cpu.Core, len(tr.Threads))
	stats := sim.NewStats()
	for i, recs := range tr.Threads {
		cores[i] = cpu.NewCore(i, cfg, ms, recs, stats)
	}
	n := len(cores)
	wake := sim.NewWakeups(n)
	last := make([]uint64, n)
	for i := range cores {
		wake.Schedule(i, 0)
	}
	var now uint64
	done, parked := 0, 0
	for done < n {
		t, ok := wake.Min()
		if !ok {
			if parked == 0 || parked+done != n {
				return 0, fmt.Errorf("cores deadlocked at cycle %d", now)
			}
			for i, c := range cores {
				if c.WaitingBarrier() {
					c.ReleaseBarrier(now)
					wake.Schedule(i, now+1)
				}
			}
			parked = 0
			continue
		}
		now = t
		for tt, ok := wake.Min(); ok && tt == now; tt, ok = wake.Min() {
			id, _ := wake.PopMin()
			c := cores[id]
			next := c.Tick(now, now-last[id])
			last[id] = now
			switch {
			case c.Done():
				done++
			case c.WaitingBarrier():
				parked++
			case next != ^uint64(0):
				wake.Schedule(id, max(next, now+1))
			}
		}
	}
	var retired uint64
	for _, c := range cores {
		retired += c.Retired()
	}
	return retired, nil
}

// Kinds of a captured memory request.
const (
	reqRead = iota
	reqWrite
	reqUCRead
	reqUCWrite
	reqAtomic
	reqBundle
)

// memReq is one request the machine sent to its memory backend.
type memReq struct {
	at   uint64
	addr memmap.Addr
	kind uint8
	op   hmcatomic.Op
}

// recordingConfig wraps a backend configuration so that the assembled
// machine's memory traffic is logged, with its issue times, as the
// backend serves it: the mem pass replays exactly what a real replay sent.
type recordingConfig struct {
	mem.Config
	log *[]memReq
}

func (c recordingConfig) New(stats *sim.Stats) mem.Backend {
	b := &recordingBackend{Backend: c.Config.New(stats), log: c.log}
	if bb, ok := b.Backend.(mem.BundleBackend); ok {
		return recordingBundleBackend{b, bb}
	}
	return b
}

type recordingBackend struct {
	mem.Backend
	log *[]memReq
}

func (b *recordingBackend) note(kind uint8, a memmap.Addr, now uint64, op hmcatomic.Op) {
	*b.log = append(*b.log, memReq{at: now, addr: a, kind: kind, op: op})
}

func (b *recordingBackend) ReadLine(a memmap.Addr, now uint64) uint64 {
	b.note(reqRead, a, now, 0)
	return b.Backend.ReadLine(a, now)
}

func (b *recordingBackend) WriteLine(a memmap.Addr, now uint64) {
	b.note(reqWrite, a, now, 0)
	b.Backend.WriteLine(a, now)
}

func (b *recordingBackend) UCRead(a memmap.Addr, now uint64) uint64 {
	b.note(reqUCRead, a, now, 0)
	return b.Backend.UCRead(a, now)
}

func (b *recordingBackend) UCWrite(a memmap.Addr, now uint64) uint64 {
	b.note(reqUCWrite, a, now, 0)
	return b.Backend.UCWrite(a, now)
}

func (b *recordingBackend) Atomic(op hmcatomic.Op, a memmap.Addr, imm hmcatomic.Value, now uint64) mem.AtomicTiming {
	b.note(reqAtomic, a, now, op)
	return b.Backend.Atomic(op, a, imm, now)
}

// recordingBundleBackend keeps the general-purpose tier of a backend that
// has one, so recording never changes how the machine offloads.
type recordingBundleBackend struct {
	*recordingBackend
	bundle mem.BundleBackend
}

func (b recordingBundleBackend) CanOffloadBundle() bool { return b.bundle.CanOffloadBundle() }

func (b recordingBundleBackend) AtomicBundle(a memmap.Addr, now uint64) mem.AtomicTiming {
	b.note(reqBundle, a, now, 0)
	return b.bundle.AtomicBundle(a, now)
}

// recorded returns cfg with its memory backend wrapped so that its
// traffic lands in log, and the unwrapped backend configuration. The
// default HMC chain is built exactly as the machine builds it.
func recorded(cfg machine.Config, log *[]memReq) (machine.Config, mem.Config) {
	inner := cfg.Mem
	if inner == nil {
		hc := hmcbackend.DefaultConfig(max(cfg.HMCCubes, 1))
		hc.Cube = cfg.HMC
		inner = hc
	}
	cfg.Mem = recordingConfig{Config: inner, log: log}
	return cfg, inner
}

// replayMem sends reqs to a fresh backend built from cfg, the kind they
// were recorded from, and returns the backend for auditing.
func replayMem(cfg mem.Config, reqs []memReq) mem.Backend {
	b := cfg.New(sim.NewStats())
	bb, _ := b.(mem.BundleBackend)
	for _, r := range reqs {
		switch r.kind {
		case reqRead:
			b.ReadLine(r.addr, r.at)
		case reqWrite:
			b.WriteLine(r.addr, r.at)
		case reqUCRead:
			b.UCRead(r.addr, r.at)
		case reqUCWrite:
			b.UCWrite(r.addr, r.at)
		case reqAtomic:
			b.Atomic(r.op, r.addr, hmcatomic.Value{}, r.at)
		case reqBundle:
			bb.AtomicBundle(r.addr, r.at)
		}
	}
	return b
}

// auditAfter runs a backend's invariant audit at the last request's time.
func auditAfter(b mem.Backend, reqs []memReq) error {
	if len(reqs) == 0 {
		return nil
	}
	return b.Audit(reqs[len(reqs)-1].at)
}

// fixedLatency is a cache.Backend that answers every fill after
// lineLatency cycles, so the cache pass times the hierarchy alone.
type fixedLatency struct{}

func (fixedLatency) ReadLine(memmap.Addr, uint64) uint64 { return lineLatency }
func (fixedLatency) WriteLine(memmap.Addr, uint64)       {}

// medianTime runs fn layerReps times and returns the median of the
// durations it reports, in seconds.
func medianTime(fn func() time.Duration) float64 {
	var xs []float64
	for range layerReps {
		xs = append(xs, fn().Seconds())
	}
	_, med, _ := quartiles(xs)
	return med
}

// stopwatch times fn.
func stopwatch(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// layerPass is the layers child of the traced run.
func layerPass(c *cell) {
	n := c.sc.replay
	env := replayEnv(n)
	bfs := workloads.NewBFS(0)
	L := c.res.Layers
	c.res.Attempted = 1

	var g *graph.Graph
	if !c.guard("graph", func() (err error) {
		var mallocs uint64
		secs := medianTime(func() time.Duration {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			d := stopwatch(func() {
				c.span("graph.BuildStream", func() { g, err = graph.BuildStream(graph.LDBCStream(n, c.seed), true) })
			})
			runtime.ReadMemStats(&after)
			mallocs = after.Mallocs - before.Mallocs
			return d
		})
		if err != nil {
			return err
		}
		L["graph.build_ns_per_edge"] = secs * 1e9 / float64(g.NumEdges())
		L["graph.build_allocs_per_edge"] = float64(mallocs) / float64(g.NumEdges())
		return nil
	}) {
		return
	}

	var fw *gframe.Framework
	var tr *trace.Trace
	secs := medianTime(func() time.Duration {
		return stopwatch(func() { fw, tr, _ = traceWorkload(c, g, env.Threads, bfs) })
	})
	var records int
	for _, th := range tr.Threads {
		records += len(th)
	}
	L["gframe.emit_ns_per_record"] = secs * 1e9 / float64(records)

	// Full replays, the denominators of the layer shares. A second,
	// untimed replay of each records the traffic it sends to memory, the
	// mem pass's input, and must reach the same result.
	replays := make(map[harness.ConfigKind]machine.Result)
	walls := make(map[harness.ConfigKind]float64)
	traffic := make(map[harness.ConfigKind][]memReq)
	var hmcCfg mem.Config
	for _, k := range replayKinds {
		cfg := env.Config(k, bfs)
		walls[k] = stopwatch(func() {
			c.span("machine.RunTrace", func() { replays[k] = machine.RunTrace(cfg, fw.Space(), tr) })
		}).Seconds()
		L["machine.replay_ns_per_instr."+kindLabel(k)] = walls[k] * 1e9 / float64(replays[k].Instructions)
		c.res.Model["model.replay-bfs."+kindLabel(k)+".cycles"] = float64(replays[k].Cycles)
		c.guard("recorded replay "+string(k), func() error {
			var log []memReq
			rcfg, inner := recorded(cfg, &log)
			res := machine.RunTrace(rcfg, fw.Space(), tr)
			traffic[k], hmcCfg = log, inner
			return checkCount("cycles with recorded memory", res.Cycles, replays[k].Cycles)
		})
	}
	gp := replays[harness.KindGraphPIM]

	c.guard("sharded replay", func() error {
		cfg := env.Config(harness.KindGraphPIM, bfs)
		cfg.Shards = 2
		var res machine.Result
		d := stopwatch(func() { c.span("machine.RunTrace", func() { res = machine.RunTrace(cfg, fw.Space(), tr) }) })
		L["machine.shards2_speedup"] = walls[harness.KindGraphPIM] / d.Seconds()
		return checkCount("cycles with 2 shards", res.Cycles, gp.Cycles)
	})

	c.guard("trace codec", func() error {
		var buf bytes.Buffer
		var err error
		enc := medianTime(func() time.Duration {
			buf.Reset()
			return stopwatch(func() { c.span("trace.WriteV2", func() { err = trace.WriteV2(&buf, tr, fw.Space()) }) })
		})
		if err != nil {
			return err
		}
		data := buf.Bytes()
		L["trace.encode_ns_per_record"] = enc * 1e9 / float64(records)
		L["trace.bytes_per_record"] = float64(len(data)) / float64(records)
		var st *trace.Stream
		var decoded int
		dec := medianTime(func() time.Duration {
			return stopwatch(func() { st, decoded, err = decodeAll(c, bytes.NewReader(data)) })
		})
		if err != nil {
			return err
		}
		L["trace.decode_ns_per_record"] = dec * 1e9 / float64(records)
		if err := checkCount("records decoded", uint64(decoded), uint64(records)); err != nil {
			return err
		}
		cfg := env.Config(harness.KindGraphPIM, bfs)
		var res machine.Result
		d := stopwatch(func() { c.span("machine.RunSource", func() { res = machine.RunSource(cfg, fw.Space(), st) }) })
		L["trace.stream_replay_ratio"] = d.Seconds() / walls[harness.KindGraphPIM]
		return checkCount("cycles replayed from the v2 stream", res.Cycles, gp.Cycles)
	})

	// cpu alone, recording the access stream once outside the timing.
	cpuCfg := env.Config(harness.KindBaseline, bfs).CPU
	capture := &idealMemory{record: true}
	var cpuNs, cacheNs, routeNs float64
	if !c.guard("cpu", func() error {
		retired, err := runCores(cpuCfg, capture, tr)
		if err != nil {
			return err
		}
		if err := checkCount("instructions retired against ideal memory", retired, tr.TotalInstructions()); err != nil {
			return err
		}
		secs := medianTime(func() time.Duration {
			return stopwatch(func() { c.span("cpu.Core.Tick", func() { _, err = runCores(cpuCfg, &idealMemory{}, tr) }) })
		})
		cpuNs = secs * 1e9 / float64(retired)
		L["cpu.ns_per_instr"] = cpuNs
		return err
	}) {
		return
	}

	// cache alone over the Baseline configuration's hierarchy.
	c.guard("cache", func() error {
		cacheCfg := env.Config(harness.KindBaseline, bfs).Cache
		var stats *sim.Stats
		secs := medianTime(func() time.Duration {
			stats = sim.NewStats()
			h := cache.New(cacheCfg, fixedLatency{}, stats)
			return stopwatch(func() {
				c.span("cache.Hierarchy.Access", func() {
					for _, a := range capture.log {
						h.Access(int(a.core), a.addr, a.in.Kind != trace.KindLoad, a.at)
					}
				})
			})
		})
		cacheNs = secs * 1e9 / float64(len(capture.log))
		L["cache.ns_per_access"] = cacheNs
		L["cache.l1_hit_ratio"] = stats.Ratio("cache.l1.hit", "cache.l1.access")
		L["cache.l3_miss_ratio"] = stats.Ratio("cache.l3.miss", "cache.l3.access")
		return nil
	})

	// pou alone, routing for the GraphPIM placement on a substrate that
	// executes every command, as the HMC does for BFS. The machine routes
	// every memory record once, and each atomic a second time to ask
	// whether it blocks.
	var memRecs []trace.Instr
	for _, th := range tr.Threads {
		for _, in := range th {
			if in.Kind == trace.KindLoad || in.Kind == trace.KindStore || in.Kind == trace.KindAtomic {
				memRecs = append(memRecs, in)
			}
		}
	}
	routes := float64(len(memRecs)) + float64(tr.CountKind(trace.KindAtomic))
	c.guard("pou", func() error {
		u := pou.New(env.Config(harness.KindGraphPIM, bfs).POU, fw.Space())
		var paths [4]int
		secs := medianTime(func() time.Duration {
			return stopwatch(func() {
				c.span("pou.Unit.Route", func() {
					for _, in := range memRecs {
						paths[u.Route(in).Path]++
					}
				})
			})
		})
		routeNs = secs * 1e9 / float64(len(memRecs))
		L["pou.ns_per_route"] = routeNs
		return checkCount("routes", uint64(paths[0]+paths[1]+paths[2]+paths[3]), uint64(layerReps*len(memRecs)))
	})

	// mem alone: each backend serves the requests, with their issue
	// times, that a GraphPIM GNNMean replay on that backend sent it.
	c.guard("mem", func() error {
		w := workloads.NewGNNMean(workloads.FeatDims)
		gfw, gtr, _ := traceWorkload(c, g, env.Threads, w)
		for _, kind := range substrates {
			genv := replayEnv(n)
			genv.Memory = kind
			var log []memReq
			cfg, inner := recorded(genv.Config(harness.KindGraphPIM, w), &log)
			var res machine.Result
			c.span("machine.RunTrace", func() { res = machine.RunTrace(cfg, gfw.Space(), gtr) })
			c.res.Model["model.gnn-substrates."+kind+".cycles"] = float64(res.Cycles)
			var b mem.Backend
			d := stopwatch(func() { c.span("mem."+kind, func() { b = replayMem(inner, log) }) })
			L["mem."+kind+".ns_per_request"] = float64(d.Nanoseconds()) / float64(len(log))
			if err := auditAfter(b, log); err != nil {
				return fmt.Errorf("%s: %w", kind, err)
			}
		}
		return nil
	})

	// The HMC alone on each BFS replay's own traffic, for its share.
	hmcNs := make(map[harness.ConfigKind]float64)
	for _, k := range replayKinds {
		c.guard("mem hmc "+string(k), func() error {
			var b mem.Backend
			d := stopwatch(func() { c.span("mem.hmc", func() { b = replayMem(hmcCfg, traffic[k]) }) })
			hmcNs[k] = float64(d.Nanoseconds())
			return auditAfter(b, traffic[k])
		})
	}

	// Shares of each full replay: a layer's time alone, or its cost per
	// operation times the replay's own operation count, over the replay's
	// wall time. The remainder is the machine's own scheduling and glue.
	for _, k := range replayKinds {
		wallNs := walls[k] * 1e9
		shares := map[string]float64{
			"cpu":   cpuNs * float64(replays[k].Instructions) / wallNs,
			"cache": cacheNs * float64(replays[k].Stats["cache.l1.access"]) / wallNs,
			"mem":   hmcNs[k] / wallNs,
			"pou":   routeNs * routes / wallNs,
		}
		self := 1.0
		for layer, s := range shares {
			L["machine.layer_share."+kindLabel(k)+"."+layer] = s
			self -= s
		}
		L["machine.self_share."+kindLabel(k)] = self
	}
}

// decodeAll opens a v2 trace and drains every thread's cursor, returning
// the stream and the number of records decoded.
func decodeAll(c *cell, ra io.ReaderAt) (st *trace.Stream, records int, err error) {
	c.span("trace.OpenStream", func() { st, err = trace.OpenStream(ra) })
	if err != nil {
		return nil, 0, err
	}
	c.span("trace.Cursor.NextWindow", func() {
		for t := range st.NumThreads() {
			cur := st.Cursor(t)
			for w := cur.NextWindow(); w != nil; w = cur.NextWindow() {
				records += len(w)
			}
		}
	})
	return st, records, nil
}
