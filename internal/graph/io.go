package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Edge-list text I/O. The format is the de facto standard used by SNAP,
// Graph500 reference outputs, and GraphBIG's CSV loaders: one edge per
// line as "src dst [weight]", with '#' or '%' comment lines ignored.
// Vertices are dense integer ids; the graph size is max(id)+1 unless a
// "# vertices: N" header enlarges it.

// WriteEdgeList serializes g as an edge-list with a vertex-count header.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintf(bw, "# vertices: %d\n# edges: %d\n", g.NumVertices(), g.NumEdges()); err != nil {
		return err
	}
	for v := 0; v < g.NumVertices(); v++ {
		nbrs := g.OutNeighbors(VID(v))
		ws := g.OutWeights(VID(v))
		for i, d := range nbrs {
			if _, err := fmt.Fprintf(bw, "%d %d %d\n", v, d, ws[i]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WriteEdgeListStream serializes a stream as an edge-list without
// building (or holding) a graph: pass 1 counts edges for the header,
// pass 2 writes lines. The edge count in the header is the raw stream
// count (pre-dedup); readers treat it as descriptive.
func WriteEdgeListStream(w io.Writer, s EdgeStream) error {
	var m uint64
	if err := s.Edges(func(_, _ VID, _ uint32) bool { m++; return true }); err != nil {
		return err
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintf(bw, "# vertices: %d\n# edges: %d\n", s.NumVertices(), m); err != nil {
		return err
	}
	var werr error
	if err := s.Edges(func(src, dst VID, wt uint32) bool {
		_, werr = fmt.Fprintf(bw, "%d %d %d\n", src, dst, wt)
		return werr == nil
	}); err != nil {
		return err
	}
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// MaxEdgeListVertices bounds the vertex count ReadEdgeList accepts
// (sparse ids in a text file directly size the CSR arrays, so an
// adversarial or corrupt line like "4294967295 0" must not trigger a
// multi-gigabyte allocation). The limit comfortably covers the paper's
// largest graph (71.7M vertices).
const MaxEdgeListVertices = 1 << 27

// parseEdgeList makes one scanning pass over an edge-list, calling edge
// for every edge line (nil to just gather stats; returning false stops
// the scan early). It returns the "# vertices: N" header value and line
// (0 if absent), the largest vertex id referenced, and the edge count.
func parseEdgeList(r io.Reader, edge func(src, dst uint64, w uint32) bool) (declared uint64, declaredLine int, maxID uint64, count uint64, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line[0] == '#' || line[0] == '%' {
			// Honor a "# vertices: N" header. Only a comment whose body
			// starts with "vertices:" counts — a substring match would
			// also fire on "# max_vertices: 5" or "# edges: 9 vertices: 3"
			// and silently (mis)set the count.
			body := strings.TrimSpace(strings.TrimLeft(line, "#% \t"))
			if rest, ok := strings.CutPrefix(body, "vertices:"); ok {
				n, perr := strconv.ParseUint(strings.TrimSpace(rest), 10, 32)
				if perr != nil {
					return 0, 0, 0, 0, fmt.Errorf("graph: line %d: bad vertex-count header %q: %w", lineNo, line, perr)
				}
				declared = n
				declaredLine = lineNo
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0, 0, 0, 0, fmt.Errorf("graph: line %d: need at least src and dst, got %q", lineNo, line)
		}
		src, perr := strconv.ParseUint(fields[0], 10, 32)
		if perr != nil {
			return 0, 0, 0, 0, fmt.Errorf("graph: line %d: bad src %q: %w", lineNo, fields[0], perr)
		}
		dst, perr := strconv.ParseUint(fields[1], 10, 32)
		if perr != nil {
			return 0, 0, 0, 0, fmt.Errorf("graph: line %d: bad dst %q: %w", lineNo, fields[1], perr)
		}
		w := uint64(1)
		if len(fields) >= 3 {
			w, perr = strconv.ParseUint(fields[2], 10, 32)
			if perr != nil {
				return 0, 0, 0, 0, fmt.Errorf("graph: line %d: bad weight %q: %w", lineNo, fields[2], perr)
			}
		}
		if src > maxID {
			maxID = src
		}
		if dst > maxID {
			maxID = dst
		}
		count++
		if edge != nil && !edge(src, dst, uint32(w)) {
			break
		}
	}
	if serr := sc.Err(); serr != nil {
		return 0, 0, 0, 0, fmt.Errorf("graph: reading edge list: %w", serr)
	}
	return declared, declaredLine, maxID, count, nil
}

// EdgeListStream is a re-runnable EdgeStream over edge-list text. Each
// Edges call re-seeks and re-parses, so building from a file never holds
// more than the scanner's buffer — the text itself is the edge storage.
type EdgeListStream struct {
	rs    io.ReadSeeker
	start int64
	n     int
}

// NewEdgeListStream validates an edge-list with one scanning pass (all
// parse errors surface here, with line numbers) and returns a stream
// over it. If r is an io.ReadSeeker (files, bytes/strings readers), each
// pass re-seeks to the current position and re-reads; otherwise the
// remaining input is buffered in memory once — still only the raw text,
// never a parsed []Edge.
func NewEdgeListStream(r io.Reader) (*EdgeListStream, error) {
	rs, ok := r.(io.ReadSeeker)
	if !ok {
		data, err := io.ReadAll(r)
		if err != nil {
			return nil, fmt.Errorf("graph: reading edge list: %w", err)
		}
		rs = bytes.NewReader(data)
	}
	start, err := rs.Seek(0, io.SeekCurrent)
	if err != nil {
		return nil, fmt.Errorf("graph: edge list source is not seekable: %w", err)
	}
	declared, declaredLine, maxID, count, err := parseEdgeList(rs, nil)
	if err != nil {
		return nil, err
	}
	n := maxID + 1
	if declaredLine > 0 && count > 0 && declared < n {
		// A header smaller than the ids actually seen is a corrupt or
		// mislabeled file; silently ignoring it would hide truncation.
		return nil, fmt.Errorf("graph: line %d: header declares %d vertices but edges reference id %d",
			declaredLine, declared, maxID)
	}
	if declared > n {
		n = declared
	}
	if n < 2 {
		n = 2
	}
	if n > MaxEdgeListVertices {
		return nil, fmt.Errorf("graph: vertex id space %d exceeds limit %d", n, MaxEdgeListVertices)
	}
	return &EdgeListStream{rs: rs, start: start, n: int(n)}, nil
}

// NumVertices returns the vertex count (max id + 1, or the header value
// if larger, floor 2).
func (s *EdgeListStream) NumVertices() int { return s.n }

// Edges re-parses the edge-list from its starting offset.
func (s *EdgeListStream) Edges(emit func(src, dst VID, w uint32) bool) error {
	if _, err := s.rs.Seek(s.start, io.SeekStart); err != nil {
		return fmt.Errorf("graph: seeking edge list: %w", err)
	}
	_, _, _, _, err := parseEdgeList(s.rs, func(src, dst uint64, w uint32) bool {
		return emit(VID(src), VID(dst), w)
	})
	return err
}

// ReadEdgeList parses an edge-list and builds a graph via the streaming
// two-pass builder. Duplicate edges are preserved unless dedup is true.
// Peak memory is the final CSR plus the scanner buffer; the historical
// materialized []Edge is gone.
func ReadEdgeList(r io.Reader, dedup bool) (*Graph, error) {
	s, err := NewEdgeListStream(r)
	if err != nil {
		return nil, err
	}
	return BuildStream(s, dedup)
}
