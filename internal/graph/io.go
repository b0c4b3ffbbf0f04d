package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ReadEdgeList parses a whitespace-separated edge-list. Supported line
// shapes (after stripping '#'-comments and blank lines):
//
//	u v
//	u v p
//	u v p phi
//
// Node ids must be non-negative integers; the node count is one more than
// the largest id seen. Undirected inputs should be pre-expanded to both
// arcs (see Builder.AddUndirected), matching the paper's convention.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	type rawEdge struct {
		u, v   NodeID
		p, phi float64
	}
	var edges []rawEdge
	maxID := NodeID(-1)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) < 2 || len(fields) > 4 {
			return nil, fmt.Errorf("graph: line %d: expected 2-4 fields, got %d", lineNo, len(fields))
		}
		u64, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad source id %q: %v", lineNo, fields[0], err)
		}
		v64, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad target id %q: %v", lineNo, fields[1], err)
		}
		if u64 < 0 || v64 < 0 {
			return nil, fmt.Errorf("graph: line %d: negative node id", lineNo)
		}
		e := rawEdge{u: NodeID(u64), v: NodeID(v64)}
		if len(fields) >= 3 {
			e.p, err = strconv.ParseFloat(fields[2], 64)
			if err != nil || e.p < 0 || e.p > 1 {
				return nil, fmt.Errorf("graph: line %d: bad probability %q", lineNo, fields[2])
			}
		}
		if len(fields) == 4 {
			e.phi, err = strconv.ParseFloat(fields[3], 64)
			if err != nil || e.phi < 0 || e.phi > 1 {
				return nil, fmt.Errorf("graph: line %d: bad interaction %q", lineNo, fields[3])
			}
		}
		if e.u > maxID {
			maxID = e.u
		}
		if e.v > maxID {
			maxID = e.v
		}
		edges = append(edges, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: scan: %w", err)
	}
	b := NewBuilder(maxID + 1)
	for _, e := range edges {
		b.AddEdgeP(e.u, e.v, e.p, e.phi)
	}
	g := b.Build()
	g.SetDefaultLTWeights()
	return g, nil
}

// WriteEdgeList writes the graph as "u v p phi" lines, one arc per line,
// readable back by ReadEdgeList. Opinions are not serialized here; the
// binary format (WriteBinary) carries them.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# nodes=%d arcs=%d\n", g.NumNodes(), g.NumEdges()); err != nil {
		return err
	}
	for u := NodeID(0); u < g.NumNodes(); u++ {
		base := g.OutEdgeBase(u)
		for i, v := range g.OutNeighbors(u) {
			e := base + int64(i)
			if _, err := fmt.Fprintf(bw, "%d %d %g %g\n", u, v, g.ProbAt(e), g.outPhi[e]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
