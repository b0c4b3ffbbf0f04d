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
//	outProb   m × f64
//	outPhi    m × f64
//	outWt     m × f64
//	opinion   n × f64
//
// The in-adjacency is rebuilt on load (cheaper than storing it).
const (
	binaryMagic   = "HIMG"
	binaryVersion = 1
)

// WriteBinary serializes g in the binary format.
func WriteBinary(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	hdr := []interface{}{uint32(binaryVersion), uint32(g.n), uint64(len(g.outTo))}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, arr := range []interface{}{g.outStart, g.outTo, g.outProb, g.outPhi, g.outWt, g.opinion} {
		if err := binary.Write(bw, binary.LittleEndian, arr); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// maxBinaryArcs bounds the arc count ReadBinary will accept. Combined
// with chunked payload reads it keeps a corrupt or adversarial header
// from driving an enormous up-front allocation: a truncated stream fails
// at its first missing chunk having allocated at most one chunk beyond
// the data actually present.
const maxBinaryArcs = 1 << 34

// readChunked reads count little-endian values of a fixed-size type,
// growing the destination one bounded chunk at a time so allocation
// tracks the bytes actually present in the stream.
func readChunked[T int32 | int64 | float64](r io.Reader, count uint64, what string) ([]T, error) {
	const chunk = 1 << 20
	capHint := count
	if capHint > chunk {
		capHint = chunk
	}
	out := make([]T, 0, capHint)
	for read := uint64(0); read < count; {
		n := count - read
		if n > chunk {
			n = chunk
		}
		start := len(out)
		out = append(out, make([]T, n)...)
		if err := binary.Read(r, binary.LittleEndian, out[start:]); err != nil {
			return nil, fmt.Errorf("graph: binary %s: %w", what, err)
		}
		read += n
	}
	return out, nil
}

// ReadBinary deserializes a graph written by WriteBinary, validating the
// header and every structural and value-range invariant before accepting
// the data: truncated, corrupt or adversarial input yields an error,
// never a panic or an unbounded allocation.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("graph: binary header: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("graph: bad magic %q", magic)
	}
	var version, n uint32
	var m uint64
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("graph: binary version: %w", err)
	}
	if version != binaryVersion {
		return nil, fmt.Errorf("graph: unsupported binary version %d", version)
	}
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("graph: binary node count: %w", err)
	}
	if err := binary.Read(br, binary.LittleEndian, &m); err != nil {
		return nil, fmt.Errorf("graph: binary arc count: %w", err)
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("graph: node count %d overflows int32", n)
	}
	if m > maxBinaryArcs {
		return nil, fmt.Errorf("graph: implausible arc count %d (max %d)", m, uint64(maxBinaryArcs))
	}
	g := &Graph{n: int32(n)}
	var err error
	if g.outStart, err = readChunked[int64](br, uint64(n)+1, "CSR offsets"); err != nil {
		return nil, err
	}
	if g.outTo, err = readChunked[NodeID](br, m, "edge targets"); err != nil {
		return nil, err
	}
	if g.outProb, err = readChunked[float64](br, m, "probabilities"); err != nil {
		return nil, err
	}
	if g.outPhi, err = readChunked[float64](br, m, "interaction probabilities"); err != nil {
		return nil, err
	}
	if g.outWt, err = readChunked[float64](br, m, "LT weights"); err != nil {
		return nil, err
	}
	if g.opinion, err = readChunked[float64](br, uint64(n), "opinions"); err != nil {
		return nil, err
	}
	// Validate structure before building the in-adjacency.
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
	for i, p := range g.outProb {
		if !ValidProb(p) {
			return nil, fmt.Errorf("graph: probability %v at edge %d out of range", p, i)
		}
	}
	for i, phi := range g.outPhi {
		if !ValidProb(phi) {
			return nil, fmt.Errorf("graph: interaction probability %v at edge %d out of range", phi, i)
		}
	}
	for i, w := range g.outWt {
		if !ValidWeight(w) {
			return nil, fmt.Errorf("graph: LT weight %v at edge %d out of range", w, i)
		}
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
func (g *Graph) buildInAdjacency() {
	n := g.n
	m := int64(len(g.outTo))
	g.inStart = make([]int64, n+1)
	g.inFrom = make([]NodeID, m)
	g.inEdge = make([]int64, m)
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
		g.inEdge[pos] = i
	}
}
