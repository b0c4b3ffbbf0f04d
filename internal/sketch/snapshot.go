package sketch

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"

	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/ris"
)

// Versioned binary snapshot of an Index, so imserver restarts (and
// offline build pipelines via imrun build) warm instead of resampling.
// Little-endian layout:
//
//	magic "HIMS" | version u32
//	graphFP u64 | n u32 | m u64        — guards: refuse a foreign graph
//	kind u32 | epsilon f64 | ell f64 | seed u64 | buildK u32 | lb f64
//	numSets u64
//	lens    numSets × u32
//	ids     Σlens × u32
//	weights numSets × f64              — version 2 (weighted kinds) only
//	checksum u64                       — FNV-1a of every preceding byte
//
// Version 1 (kinds IC and LT) has no weights block; version 2 carries
// the per-set root-opinion weights of an opinion-aware (OC) index.
// Unweighted indexes keep writing version 1, so every pre-existing
// snapshot — and any new IC/LT one — round-trips byte-identically
// through old and new readers alike.
//
// The layout is deterministic: Save after Load reproduces the input
// byte-for-byte, which is what the snapshot tests pin.
const (
	snapshotMagic     = "HIMS"
	snapshotVersion   = 1 // unweighted layout
	snapshotVersionV2 = 2 // + per-set root-opinion weights

	// headerSize is the bytes before the set lengths: magic through numSets.
	headerSize = 76

	// maxSnapshotSets bounds how many sets Load will accept; a corrupt
	// count must not drive a multi-terabyte allocation.
	maxSnapshotSets = 1 << 31
)

// ioBufSize is the buffer payload values are encoded and decoded through,
// a stretch of one column at a time.
const ioBufSize = 1 << 16

// encode streams a snapshot's bytes up to the checksum — hdr, then the set
// lengths (the differences of off), the members and the weights (none for
// version 1) — through emit, one stretch of a column at a time, each
// encoded into buf by a plain loop. Save writes what it emits; Load
// re-derives the bytes it decoded to take their sum.
func encode(buf, hdr []byte, off []uint32, members []graph.NodeID, weights []float64, emit func([]byte) error) error {
	if err := emit(hdr); err != nil {
		return err
	}
	le := binary.LittleEndian
	for lo := 1; lo < len(off); lo += ioBufSize / 4 {
		n := min(ioBufSize/4, len(off)-lo)
		for i := 0; i < n; i++ {
			le.PutUint32(buf[4*i:], off[lo+i]-off[lo+i-1])
		}
		if err := emit(buf[:4*n]); err != nil {
			return err
		}
	}
	for len(members) > 0 {
		n := min(ioBufSize/4, len(members))
		for i, v := range members[:n] {
			le.PutUint32(buf[4*i:], uint32(v))
		}
		if err := emit(buf[:4*n]); err != nil {
			return err
		}
		members = members[n:]
	}
	for len(weights) > 0 {
		n := min(ioBufSize/8, len(weights))
		for i, wt := range weights[:n] {
			le.PutUint64(buf[8*i:], math.Float64bits(wt))
		}
		if err := emit(buf[:8*n]); err != nil {
			return err
		}
		weights = weights[n:]
	}
	return nil
}

// Save writes the index snapshot. Concurrent Selects are held off for the
// duration (the sets must not grow mid-write). The payload streams straight
// from the arena through one buffer — a snapshot of any size is written
// with no copy of its own — each stretch hashed, then written to w. The
// checksum is what a Save costs: FNV-1a is an xor–multiply chain per byte,
// ≈4 cycles a byte on whichever core runs it, seven times the encoding.
func (x *Index) Save(w io.Writer) error {
	x.mu.Lock()
	defer x.mu.Unlock()

	version := uint32(snapshotVersion)
	if x.params.Kind.Weighted() {
		version = snapshotVersionV2
	}
	off, members, weights := x.col.Offsets(), x.col.Members(), x.col.Weights()
	sets := len(off) - 1
	// An in-memory destination would double its way up under a stream of
	// 64 KB writes — twice the snapshot in garbage — so one that can
	// reserve (a bytes.Buffer) is told the exact size first.
	if g, ok := w.(interface{ Grow(n int) }); ok {
		g.Grow(headerSize + 4*sets + 4*len(members) + 8*len(weights) + 8)
	}

	le := binary.LittleEndian
	hdr := append(make([]byte, 0, headerSize), snapshotMagic...)
	hdr = le.AppendUint32(hdr, version)
	hdr = le.AppendUint64(hdr, x.g.Fingerprint())
	hdr = le.AppendUint32(hdr, uint32(x.g.NumNodes()))
	hdr = le.AppendUint64(hdr, uint64(x.g.NumEdges()))
	hdr = le.AppendUint32(hdr, uint32(x.params.Kind))
	hdr = le.AppendUint64(hdr, math.Float64bits(x.params.Epsilon))
	hdr = le.AppendUint64(hdr, math.Float64bits(x.params.Ell))
	hdr = le.AppendUint64(hdr, x.params.Seed)
	hdr = le.AppendUint32(hdr, uint32(x.params.BuildK))
	hdr = le.AppendUint64(hdr, math.Float64bits(x.lb))
	hdr = le.AppendUint64(hdr, uint64(sets))

	h := fnv.New64a()
	buf := make([]byte, ioBufSize)
	err := encode(buf, hdr, off, members, weights, func(b []byte) error {
		h.Write(b)
		_, err := w.Write(b)
		return err
	})
	if err != nil {
		return err
	}
	_, err = w.Write(le.AppendUint64(buf[:0], h.Sum64()))
	return err
}

// Header is the metadata prefix of a snapshot, readable without the
// graph (ReadHeader) for inspection tooling. Payload and checksum are
// not verified at this level — Load does that.
type Header struct {
	Version          int // 1 = unweighted, 2 = per-set opinion weights
	GraphFingerprint uint64
	Nodes            int32
	Arcs             int64
	Kind             ris.ModelKind
	Epsilon          float64
	Ell              float64
	Seed             uint64
	BuildK           int
	LowerBound       float64
	Sets             uint64
}

// Weighted reports whether the snapshot carries per-set opinion weights.
func (h Header) Weighted() bool { return h.Version >= snapshotVersionV2 }

// versionKindConsistent checks the version/kind pairing both readers
// enforce: v1 holds the unweighted kinds, v2 the weighted ones.
func versionKindConsistent(version, kind uint32) error {
	switch version {
	case snapshotVersion:
		if kind > uint32(ris.ModelLT) {
			return fmt.Errorf("sketch: v1 snapshot with unknown or weighted kind %d", kind)
		}
	case snapshotVersionV2:
		if kind > uint32(ris.ModelOC) || !ris.ModelKind(kind).Weighted() {
			return fmt.Errorf("sketch: v2 snapshot with unknown or unweighted kind %d", kind)
		}
	default:
		return fmt.Errorf("sketch: unsupported snapshot version %d", version)
	}
	return nil
}

// ReadHeader parses just the snapshot header — for inspection
// (imrun info) from a plain reader. It validates magic and the
// version/kind pairing but neither the values against a graph nor the
// payload checksum.
func ReadHeader(r io.Reader) (Header, error) {
	return readHeader(r, make([]byte, headerSize))
}

// readHeader reads the header's bytes into b, which Load keeps for the
// checksum, and parses them. Two reads, the magic and the rest: a stream cut short between two
// fields is an unexpected EOF, only one cut before either read a plain one.
func readHeader(r io.Reader, b []byte) (Header, error) {
	if _, err := io.ReadFull(r, b[:4]); err != nil {
		return Header{}, fmt.Errorf("sketch: snapshot header: %w", err)
	}
	if string(b[:4]) != snapshotMagic {
		return Header{}, fmt.Errorf("sketch: bad snapshot magic %q", b[:4])
	}
	if _, err := io.ReadFull(r, b[4:headerSize]); err != nil {
		return Header{}, fmt.Errorf("sketch: snapshot header: %w", err)
	}
	le := binary.LittleEndian
	version, kind := le.Uint32(b[4:]), le.Uint32(b[28:])
	if err := versionKindConsistent(version, kind); err != nil {
		return Header{}, err
	}
	return Header{
		Version:          int(version),
		GraphFingerprint: le.Uint64(b[8:]),
		Nodes:            int32(le.Uint32(b[16:])),
		Arcs:             int64(le.Uint64(b[20:])),
		Kind:             ris.ModelKind(kind),
		Epsilon:          math.Float64frombits(le.Uint64(b[32:])),
		Ell:              math.Float64frombits(le.Uint64(b[40:])),
		Seed:             le.Uint64(b[48:]),
		BuildK:           int(le.Uint32(b[56:])),
		LowerBound:       math.Float64frombits(le.Uint64(b[60:])),
		Sets:             le.Uint64(b[68:]),
	}, nil
}

// readValues reads count little-endian values of size bytes each into a
// slice that starts with head zero elements, a buf-full at a time, each
// decoded by one call of decode (dst and src hold the same number of
// values). The destination's capacity doubles as values arrive and never
// passes what the header claimed: allocation stays within twice the bytes
// actually present in the stream, so a header lying about its counts fails
// at the first missing byte instead of driving an enormous up-front make,
// while an honest one ends in a slice of exactly its final size. (Same
// defense as graph.ReadBinary's payload reads.)
func readValues[T any](r io.Reader, buf []byte, count uint64, head, size int, decode func(dst []T, src []byte), what string) ([]T, error) {
	const firstChunk = 1 << 20
	out := make([]T, head, uint64(head)+min(count, firstChunk))
	for read := uint64(0); read < count; {
		if len(out) == cap(out) {
			grown := make([]T, len(out), uint64(head)+min(count, 2*read))
			copy(grown, out)
			out = grown
		}
		n := min(cap(out)-len(out), len(buf)/size)
		src := buf[:n*size]
		if _, err := io.ReadFull(r, src); err != nil {
			return nil, fmt.Errorf("sketch: snapshot %s: %w", what, err)
		}
		decode(out[len(out):len(out)+n], src)
		out = out[:len(out)+n]
		read += uint64(n)
	}
	return out, nil
}

// Load reads a snapshot written by Save and binds it to g, which must be
// the very graph the sketch was built on: the stored content fingerprint
// and dimensions are verified before any set is accepted. The returned
// index samples on GOMAXPROCS workers (Params.Workers is not persisted).
//
// The bytes are decoded and range-checked as they are read, not hashed:
// once the last value has passed its check, the checksum is taken on a
// goroutine of its own — over the decoded arrays encoded again, which are
// the bytes read — while this one indexes the arena (Install), the two
// costing about the same. The sums are compared before anything is
// returned: a snapshot that is well-formed but mis-summed costs an index
// that is dropped, and is refused like any other.
func Load(r io.Reader, g *graph.Graph) (*Index, error) {
	if g == nil {
		return nil, fmt.Errorf("sketch: nil graph")
	}
	hdr := make([]byte, headerSize)
	h, err := readHeader(r, hdr)
	if err != nil {
		return nil, err
	}
	n, numSets := uint32(h.Nodes), h.Sets
	if h.Nodes != g.NumNodes() || h.Arcs != g.NumEdges() {
		return nil, fmt.Errorf("sketch: snapshot is for a %d-node/%d-arc graph, got %d/%d",
			n, uint64(h.Arcs), g.NumNodes(), g.NumEdges())
	}
	if gfp := g.Fingerprint(); h.GraphFingerprint != gfp {
		return nil, fmt.Errorf("sketch: graph fingerprint mismatch (snapshot %016x, graph %016x)", h.GraphFingerprint, gfp)
	}
	if h.Epsilon <= 0 || h.Ell <= 0 || math.IsNaN(h.Epsilon) || math.IsNaN(h.Ell) {
		return nil, fmt.Errorf("sketch: corrupt parameters (eps=%v, ell=%v)", h.Epsilon, h.Ell)
	}
	p := Params{
		Kind:    h.Kind,
		Epsilon: h.Epsilon,
		Ell:     h.Ell,
		Seed:    h.Seed,
		BuildK:  h.BuildK,
	}.withDefaults(g.NumNodes())
	if p.Seed != h.Seed || p.BuildK != h.BuildK {
		// Save writes normalized parameters only; anything else would load
		// as one sketch and re-save as another.
		return nil, fmt.Errorf("sketch: corrupt parameters (seed=%d, build k=%d)", h.Seed, h.BuildK)
	}
	if h.LowerBound < 1 || math.IsNaN(h.LowerBound) || h.LowerBound > float64(n) {
		return nil, fmt.Errorf("sketch: corrupt lower bound %v", h.LowerBound)
	}
	if numSets == 0 || numSets > maxSnapshotSets {
		return nil, fmt.Errorf("sketch: implausible set count %d", numSets)
	}

	// Lengths land behind a leading zero and are prefix-summed in place
	// into the arena's offsets.
	le := binary.LittleEndian
	buf := make([]byte, ioBufSize)
	off, err := readValues(r, buf, numSets, 1, 4, func(dst []uint32, src []byte) {
		for i := range dst {
			dst[i] = le.Uint32(src[4*i:])
		}
	}, "set lengths")
	if err != nil {
		return nil, err
	}
	total := uint64(0)
	for i, l := range off[1:] {
		if l == 0 || int64(l) > int64(n) {
			return nil, fmt.Errorf("sketch: implausible set %d length %d", i, l)
		}
		if total += uint64(l); total > math.MaxUint32 {
			return nil, fmt.Errorf("sketch: implausible payload of more than 2^32 set members")
		}
		off[i+1] = uint32(total)
	}
	ids, err := readValues(r, buf, total, 0, 4, func(dst []graph.NodeID, src []byte) {
		for i := range dst {
			dst[i] = graph.NodeID(le.Uint32(src[4*i:]))
		}
	}, "set payload")
	if err != nil {
		return nil, err
	}
	for _, v := range ids {
		if v < 0 || v >= int32(n) {
			return nil, fmt.Errorf("sketch: set member %d out of range [0,%d)", v, n)
		}
	}
	var setWeights []float64
	if h.Weighted() {
		setWeights, err = readValues(r, buf, numSets, 0, 8, func(dst []float64, src []byte) {
			for i := range dst {
				dst[i] = math.Float64frombits(le.Uint64(src[8*i:]))
			}
		}, "set weights")
		if err != nil {
			return nil, err
		}
		for i, w := range setWeights {
			// Root-opinion weights are convex combinations of opinions in
			// [-1,1]; anything outside marks corruption.
			if math.IsNaN(w) || w < -1 || w > 1 {
				return nil, fmt.Errorf("sketch: implausible set %d weight %v", i, w)
			}
		}
	}
	var tail [8]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return nil, fmt.Errorf("sketch: snapshot checksum: %w", err)
	}

	sum := make(chan uint64, 1)
	go func() {
		fh := fnv.New64a()
		encode(buf, hdr, off, ids, setWeights, func(b []byte) error {
			fh.Write(b)
			return nil
		})
		sum <- fh.Sum64()
	}()
	x := &Index{
		g:      g,
		params: p,
		col:    ris.NewCollection(g, p.Kind),
		lb:     h.LowerBound,
	}
	x.col.Install(ids, off, setWeights)
	if stored, computed := le.Uint64(tail[:]), <-sum; stored != computed {
		return nil, fmt.Errorf("sketch: checksum mismatch (stored %016x, computed %016x)", stored, computed)
	}
	return x, nil
}
