package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"graphpim"
	"graphpim/internal/gframe"
	"graphpim/internal/harness"
	"graphpim/internal/machine"
	"graphpim/internal/trace"
	"graphpim/internal/workloads"
)

// cmdTrace generates a workload's instruction trace as a v2 chunk log,
// optionally into a save file, and prints its composition; with -replay
// it replays a saved trace under a machine configuration of the default
// experiment environment. A saved trace names no workload, so replay
// assumes the FP extension and an active PMR. Traces are
// expensive to generate (full functional execution), so persisting them
// lets configuration sweeps replay instead of regenerate.
func cmdTrace(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	vertices := fs.Int("vertices", 4096, "LDBC graph size")
	seed := fs.Uint64("seed", 7, "generator seed")
	save := fs.String("save", "", "write the trace to this file (chunked v2 format)")
	replay := fs.String("replay", "", "replay a saved (v2) trace file instead of generating")
	config := fs.String("config", "graphpim",
		"replay config: baseline|upei|graphpim (replay assumes the FP extension and an active PMR)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *replay != "" {
		return replayTrace(*replay, *config, stdout, stderr)
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "trace: need a workload name (or -replay FILE)")
		return 2
	}
	if !checkVertices("trace", *vertices, minVertices, stderr) {
		return 2
	}
	w, err := graphpim.WorkloadByName(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	g := graphpim.GenerateLDBC(*vertices, *seed)
	// The trace streams into the save file when there is one, else into
	// an unlinked spill; either way the counts come from its footer.
	var f *os.File
	var sw *trace.StreamWriter
	if *save != "" {
		if f, err = os.Create(*save); err == nil {
			if sw, err = trace.NewStreamWriter(f, 16, trace.DefaultChunkRecords); err != nil {
				f.Close()
			}
		}
	} else {
		f, sw, err = trace.NewSpill(16)
	}
	if err != nil {
		fmt.Fprintf(stderr, "trace: %v\n", err)
		return 1
	}
	defer f.Close()
	fw := gframe.NewStreaming(g, 16, gframe.DefaultCostModel(), sw)
	w.Run(fw)
	st, err := fw.FinalizeStream()
	if err != nil {
		fmt.Fprintf(stderr, "trace: %v\n", err)
		return 1
	}

	fmt.Fprintf(stdout, "workload:     %s on %d vertices / %d edges\n", w.Info().Name, g.NumVertices(), g.NumEdges())
	fmt.Fprintf(stdout, "instructions: %d\n", st.TotalInstructions())
	fmt.Fprintf(stdout, "loads:        %d\n", st.CountKind(trace.KindLoad))
	fmt.Fprintf(stdout, "stores:       %d\n", st.CountKind(trace.KindStore))
	fmt.Fprintf(stdout, "atomics:      %d\n", st.CountKind(trace.KindAtomic))
	fmt.Fprintf(stdout, "barriers:     %d\n", st.CountKind(trace.KindBarrier))
	byKind := st.AtomicsByKind()
	for kind := trace.AtomicNone; kind <= trace.AtomicMax; kind++ {
		if n := byKind[kind]; n > 0 {
			fmt.Fprintf(stdout, "  %-18s %d\n", kind.String(), n)
		}
	}
	if *save != "" {
		info, err := f.Stat()
		if err == nil {
			err = f.Close()
		}
		if err != nil {
			fmt.Fprintf(stderr, "trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "saved:        %s (%d bytes)\n", *save, info.Size())
	}
	return 0
}

// replayTrace replays a saved v2 trace. A file that cannot be opened or
// is not a valid v2 log (a legacy v1 file, garbage, a truncated log) is
// bad input: exit 2 with the reason.
func replayTrace(path, config string, stdout, stderr io.Writer) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(stderr, "cannot replay: %v\n", err)
		return 2
	}
	defer f.Close()
	st, err := trace.OpenStream(f)
	if err != nil {
		fmt.Fprintf(stderr, "cannot replay %s: %v\n", path, err)
		return 2
	}
	kind, ok := harness.KindByName(config)
	if !ok {
		fmt.Fprintf(stderr, "unknown config %q\n", config)
		return 2
	}
	// The trace names no workload: describe it as one whose atomics are
	// offloadable with the FP extension.
	cfg := harness.DefaultEnv().Config(kind, workloads.Info{NeedsFPExtension: true})
	res := machine.RunSource(cfg, st.Space(), st)
	fmt.Fprintf(stdout, "replayed %s under %s:\n", path, res.Config)
	fmt.Fprintf(stdout, "cycles:     %d\n", res.Cycles)
	fmt.Fprintf(stdout, "instrs:     %d\n", res.Instructions)
	fmt.Fprintf(stdout, "IPC/core:   %s\n", fmtRatio(res.IPC(16), "%.3f"))
	fmt.Fprintf(stdout, "link FLITs: %d\n", res.TotalFlits())
	fmt.Fprintf(stdout, "offloaded:  %d PIM atomics, %d host atomics\n",
		res.Stats["mem.pim_atomics"], res.Stats["mem.host_atomics"])
	return 0
}
