package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary graph format: a compact little-endian serialization for fast
// loading of large graphs (the text edge-list parses at ~10-20 MB/s; the
// binary format is I/O bound). Layout:
//
//	magic "HIMG" | version u32 | n u32 | m u64
//	outStart  (n+1) × u64
//	outTo     m × u32
//	outProb   m × f64   (per arc, whatever form the graph holds it in)
//	outPhi    m × f64
//	outWt     m × f64   (per arc, likewise)
//	opinion   n × f64
//
// The in-adjacency is rebuilt on load (cheaper than storing it).
const (
	binaryMagic   = "HIMG"
	binaryVersion = 1
)

// WriteBinary serializes g in the binary format. A per-head column is
// written out arc by arc, so the bytes do not depend on the form.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	hdr := []interface{}{uint32(binaryVersion), uint32(g.n), uint64(len(g.outTo)), g.outStart, g.outTo}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, c := range []column{g.prob, {v: g.outPhi}, g.wt} {
		err := c.eachChunk(g.outTo, func(vals []float64) error { return binary.Write(bw, binary.LittleEndian, vals) })
		if err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, g.opinion); err != nil {
		return err
	}
	return bw.Flush()
}

// decodeChunk is the number of values a payload read decodes at a time.
const decodeChunk = 8192

// decoder reads the format's little-endian arrays through one reused
// buffer, a chunk at a time, so that allocation tracks the bytes actually
// present in the stream: a truncated stream fails at its first missing
// chunk.
type decoder struct {
	r   io.Reader
	buf [8 * decodeChunk]byte
}

// each reads count values of T, handing them to fn a chunk at a time with
// the index of the chunk's first value. The chunk is reused: fn copies what
// it keeps.
func each[T int32 | int64 | float64](d *decoder, count uint64, what string, fn func(at int, vals []T) error) error {
	var vals [decodeChunk]T
	size := uint64(binary.Size(vals[0]))
	for at := uint64(0); at < count; at += decodeChunk {
		k := min(count-at, decodeChunk)
		b := d.buf[:k*size]
		if _, err := io.ReadFull(d.r, b); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return fmt.Errorf("graph: binary %s: %w", what, err)
		}
		switch v := any(vals[:k]).(type) {
		case []int32:
			for i := range v {
				v[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
			}
		case []int64:
			for i := range v {
				v[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
			}
		case []float64:
			for i := range v {
				v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
			}
		}
		if err := fn(int(at), vals[:k]); err != nil {
			return err
		}
	}
	return nil
}

// readAll reads count values of T into a slice of their own: room for at
// most 1M values up front, grown by append beyond, so a count the stream
// does not back costs at most that.
func readAll[T int32 | int64 | float64](d *decoder, count uint64, what string) ([]T, error) {
	out := make([]T, 0, min(count, 1<<20))
	err := each(d, count, what, func(_ int, vals []T) error {
		out = append(out, vals...)
		return nil
	})
	return out, err
}

// readColumn streams the m values of a p or LT-weight column, checking each
// with valid, into its canonical form: the per-arc form is allocated only
// when a row breaks, and then it is no larger than the targets already
// read allow for.
func readColumn(d *decoder, g *Graph, what string, valid func(float64) bool) (column, error) {
	fold := newHeadFold(g.n, g.outTo)
	err := each(d, uint64(len(g.outTo)), what, func(at int, vals []float64) error {
		for i, x := range vals {
			if !valid(x) {
				return fmt.Errorf("graph: %s %v at edge %d out of range", what, x, at+i)
			}
		}
		fold.add(at, vals)
		return nil
	})
	if err != nil {
		return column{}, err
	}
	return fold.column(), nil
}

// ReadBinary deserializes a graph written by WriteBinary, validating the
// header and every structural and value-range invariant before accepting
// the data: truncated, corrupt or adversarial input yields an error,
// never a panic or an unbounded allocation. The topology is read and
// checked first, so that the p and LT-weight columns can be folded to
// their canonical form as they stream in.
func ReadBinary(r io.Reader) (*Graph, error) {
	d := &decoder{r: bufio.NewReaderSize(r, 1<<20)}
	var hdr [20]byte
	if _, err := io.ReadFull(d.r, hdr[:4]); err != nil {
		return nil, fmt.Errorf("graph: binary header: %w", err)
	}
	if magic := string(hdr[:4]); magic != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %q", magic)
	}
	if _, err := io.ReadFull(d.r, hdr[4:8]); err != nil {
		return nil, fmt.Errorf("graph: binary version: %w", err)
	}
	if version := binary.LittleEndian.Uint32(hdr[4:]); version != binaryVersion {
		return nil, fmt.Errorf("graph: unsupported binary version %d", version)
	}
	if _, err := io.ReadFull(d.r, hdr[8:12]); err != nil {
		return nil, fmt.Errorf("graph: binary node count: %w", err)
	}
	if _, err := io.ReadFull(d.r, hdr[12:20]); err != nil {
		return nil, fmt.Errorf("graph: binary arc count: %w", err)
	}
	n, m := binary.LittleEndian.Uint32(hdr[8:]), binary.LittleEndian.Uint64(hdr[12:])
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("graph: node count %d overflows int32", n)
	}
	if m > maxArcs {
		return nil, fmt.Errorf("graph: arc count %d exceeds the %d an in-edge index holds", m, maxArcs)
	}
	g := &Graph{n: int32(n)}
	var err error
	if g.outStart, err = readAll[int64](d, uint64(n)+1, "CSR offsets"); err != nil {
		return nil, err
	}
	if g.outTo, err = readAll[NodeID](d, m, "edge targets"); err != nil {
		return nil, err
	}
	// Validate structure before any column is indexed by it.
	if g.outStart[0] != 0 || g.outStart[n] != int64(m) {
		return nil, fmt.Errorf("graph: corrupt CSR offsets")
	}
	for i := uint32(0); i < n; i++ {
		if g.outStart[i] > g.outStart[i+1] {
			return nil, fmt.Errorf("graph: non-monotone CSR offsets at %d", i)
		}
	}
	// Each out-row must be strictly ascending by target with no self-loop,
	// as Builder.Build leaves it: HasEdge binary-searches the rows, and a
	// row out of order hides arcs the graph holds. Starting prev below 0
	// makes the ascent check the lower range bound, and an ascending row's
	// last target the only one to hold against the upper.
	for u := NodeID(0); u < g.n; u++ {
		prev := NodeID(-1)
		for _, v := range g.outTo[g.outStart[u]:g.outStart[u+1]] {
			if v <= prev || v == u {
				return nil, fmt.Errorf("graph: out-row %d: target %d after %d is out of order or a self-loop", u, v, prev)
			}
			prev = v
		}
		if prev >= g.n {
			return nil, fmt.Errorf("graph: edge target %d out of range", prev)
		}
	}
	if g.prob, err = readColumn(d, g, "probability", ValidProb); err != nil {
		return nil, err
	}
	g.outPhi = make([]float64, 0, min(m, 1<<20))
	err = each(d, m, "interaction probability", func(at int, vals []float64) error {
		for i, phi := range vals {
			if !ValidProb(phi) {
				return fmt.Errorf("graph: interaction probability %v at edge %d out of range", phi, at+i)
			}
		}
		g.outPhi = append(g.outPhi, vals...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if g.wt, err = readColumn(d, g, "LT weight", ValidWeight); err != nil {
		return nil, err
	}
	if g.opinion, err = readAll[float64](d, uint64(n), "opinions"); err != nil {
		return nil, err
	}
	for i, o := range g.opinion {
		if o < -1 || o > 1 || math.IsNaN(o) {
			return nil, fmt.Errorf("graph: opinion %v at node %d out of range", o, i)
		}
	}
	g.buildInAdjacency()
	return g, nil
}

// buildInAdjacency reconstructs the in-edge view from the out-edge CSR.
// It panics on a graph of more than maxArcs arcs, whose positions an
// in-edge could not hold; every constructor passes through here.
func (g *Graph) buildInAdjacency() {
	n := g.n
	m := int64(len(g.outTo))
	if m > maxArcs {
		panic(fmt.Sprintf("graph: %d arcs exceed the %d an in-edge index holds", m, maxArcs))
	}
	g.inStart = make([]int64, n+1)
	g.inFrom = make([]NodeID, m)
	g.inEdge = make([]int32, m)
	for _, v := range g.outTo {
		g.inStart[v+1]++
	}
	for i := int32(0); i < n; i++ {
		g.inStart[i+1] += g.inStart[i]
	}
	cursor := make([]int64, n)
	u := NodeID(0)
	for i := int64(0); i < m; i++ {
		for g.outStart[u+1] <= i {
			u++
		}
		v := g.outTo[i]
		pos := g.inStart[v] + cursor[v]
		cursor[v]++
		g.inFrom[pos] = u
		g.inEdge[pos] = int32(i)
	}
}
