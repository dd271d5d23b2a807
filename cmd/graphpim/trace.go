package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"graphpim"
	"graphpim/internal/gframe"
	"graphpim/internal/machine"
	"graphpim/internal/trace"
)

// cmdTrace generates a workload's instruction trace, optionally saves it
// to disk, and prints its composition; with -replay it replays a saved
// trace under a machine configuration. Traces are expensive to generate
// (full functional execution), so persisting them lets configuration
// sweeps replay instead of regenerate.
func cmdTrace(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	vertices := fs.Int("vertices", 4096, "LDBC graph size")
	seed := fs.Uint64("seed", 7, "generator seed")
	save := fs.String("save", "", "write the trace to this file (chunked v2 format)")
	replay := fs.String("replay", "", "replay a saved trace file (v2 or legacy v1) instead of generating")
	config := fs.String("config", "graphpim", "replay config: baseline|upei|graphpim")
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
	fw := gframe.New(g, 16, gframe.DefaultCostModel())
	w.Run(fw)
	tr := fw.Trace()

	fmt.Fprintf(stdout, "workload:     %s on %d vertices / %d edges\n", w.Info().Name, g.NumVertices(), g.NumEdges())
	fmt.Fprintf(stdout, "instructions: %d\n", tr.TotalInstructions())
	fmt.Fprintf(stdout, "loads:        %d\n", tr.CountKind(trace.KindLoad))
	fmt.Fprintf(stdout, "stores:       %d\n", tr.CountKind(trace.KindStore))
	fmt.Fprintf(stdout, "atomics:      %d\n", tr.CountKind(trace.KindAtomic))
	fmt.Fprintf(stdout, "barriers:     %d\n", tr.CountKind(trace.KindBarrier))
	for kind, n := range tr.AtomicsByKind() {
		fmt.Fprintf(stdout, "  %-18s %d\n", kind.String(), n)
	}

	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer f.Close()
		if err := trace.WriteV2(f, tr, fw.Space()); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		info, _ := f.Stat()
		fmt.Fprintf(stdout, "saved:        %s (%d bytes)\n", *save, info.Size())
	}
	return 0
}

func replayTrace(path, config string, stdout, stderr io.Writer) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer f.Close()
	src, space, err := trace.Open(f)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	var cfg machine.Config
	switch config {
	case "baseline":
		cfg = machine.Baseline()
	case "upei":
		cfg = machine.UPEI(true)
		cfg.POU.PMRActive = true
	case "graphpim":
		cfg = machine.GraphPIM(true)
		cfg.POU.PMRActive = true
	default:
		fmt.Fprintf(stderr, "unknown config %q\n", config)
		return 2
	}
	cfg.Cache.L2Size = 128 << 10
	cfg.Cache.L3Size = 512 << 10
	res := machine.RunSource(cfg, space, src)
	fmt.Fprintf(stdout, "replayed %s under %s:\n", path, res.Config)
	fmt.Fprintf(stdout, "cycles:     %d\n", res.Cycles)
	fmt.Fprintf(stdout, "instrs:     %d\n", res.Instructions)
	fmt.Fprintf(stdout, "IPC/core:   %s\n", fmtRatio(res.IPC(16), "%.3f"))
	fmt.Fprintf(stdout, "link FLITs: %d\n", res.TotalFlits())
	fmt.Fprintf(stdout, "offloaded:  %d PIM atomics, %d host atomics\n",
		res.Stats["mem.pim_atomics"], res.Stats["mem.host_atomics"])
	return 0
}
