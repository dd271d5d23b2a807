package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"graphpim"
	"graphpim/internal/graph"
)

// cmdGraph generates synthetic graphs or inspects edge-list files:
//
//	graphpim graph gen -kind ldbc -vertices 4096 -o graph.el
//	graphpim graph info graph.el
func cmdGraph(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		fmt.Fprintln(stderr, "graph: need a subcommand: gen | info")
		return 2
	}
	switch args[0] {
	case "gen":
		return cmdGraphGen(args[1:], stdout, stderr)
	case "info":
		return cmdGraphInfo(args[1:], stdout, stderr)
	default:
		fmt.Fprintf(stderr, "graph: unknown subcommand %q\n", args[0])
		return 2
	}
}

func cmdGraphGen(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("graph gen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	kind := fs.String("kind", "ldbc", "ldbc|rmat|er|bitcoin|twitter")
	vertices := fs.Int("vertices", 4096, "vertex count")
	seed := fs.Uint64("seed", 7, "generator seed")
	out := fs.String("o", "", "output edge-list file (default stdout)")
	raw := fs.Bool("raw", false, "write the raw generator stream without building a CSR (no dedup/sort; O(1) memory at any scale)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	least := minVertices
	if *kind == "bitcoin" || *kind == "twitter" {
		least = minAppVertices
	}
	if !checkVertices("graph gen", *vertices, least, stderr) {
		return 2
	}

	var s graphpim.EdgeStream
	switch *kind {
	case "ldbc":
		s = graphpim.StreamLDBC(*vertices, *seed)
	case "rmat":
		s = graphpim.StreamRMAT(*vertices, 16, 0.57, 0.19, 0.19, *seed)
	case "er":
		s = graphpim.StreamErdosRenyi(*vertices, 8, *seed)
	case "bitcoin":
		s = graphpim.StreamBitcoinLike(*vertices, *seed)
	case "twitter":
		s = graphpim.StreamTwitterLike(*vertices, *seed)
	default:
		fmt.Fprintf(stderr, "unknown graph kind %q\n", *kind)
		return 2
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer f.Close()
		w = f
	}
	if *raw {
		if err := graph.WriteEdgeListStream(w, s); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if *out != "" {
			fmt.Fprintf(stderr, "wrote %s: raw %s stream, %d vertices\n", *out, *kind, s.NumVertices())
		}
		return 0
	}
	// Dedup matches the generators' Graph constructors: every kind
	// dedups except bitcoin (parallel transactions are meaningful).
	g, err := graphpim.BuildGraphStream(s, *kind != "bitcoin")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if err := graph.WriteEdgeList(w, g); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *out != "" {
		fmt.Fprintf(stderr, "wrote %s: %d vertices, %d edges\n", *out, g.NumVertices(), g.NumEdges())
	}
	return 0
}

func cmdGraphInfo(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("graph info", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "graph info: need an edge-list file")
		return 2
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer f.Close()
	g, err := graph.ReadEdgeList(f, false)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	// In+out degrees in one pass over the out-edges: counting each
	// edge's destination gives the in-degrees without building the
	// in-CSR.
	degs := make([]int, g.NumVertices())
	for v := range degs {
		out := g.OutNeighbors(graphpim.VID(v))
		degs[v] += len(out)
		for _, w := range out {
			degs[w]++
		}
	}
	total := g.NumEdges()
	sort.Ints(degs)
	pick := func(q float64) int { return degs[int(q*float64(len(degs)-1))] }
	fmt.Fprintf(stdout, "vertices:   %d\n", g.NumVertices())
	fmt.Fprintf(stdout, "edges:      %d\n", g.NumEdges())
	fmt.Fprintf(stdout, "avg degree: %.2f (out)\n", float64(total)/float64(g.NumVertices()))
	fmt.Fprintf(stdout, "degree p50: %d   p90: %d   p99: %d   max: %d (in+out)\n",
		pick(0.50), pick(0.90), pick(0.99), degs[len(degs)-1])
	fmt.Fprintf(stdout, "structure:  %.1f MB CSR footprint\n", float64(g.StructureBytes())/(1<<20))
	return 0
}
