package sketch

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"

	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/ris"
)

// Versioned binary snapshot of an Index, so imserver restarts (and
// offline build pipelines via cmd/imsketch) warm instead of resampling.
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

// Save writes the index snapshot. Concurrent Selects are held off for the
// duration (the sets must not grow mid-write).
func (x *Index) Save(w io.Writer) error {
	x.mu.Lock()
	defer x.mu.Unlock()

	bw := bufio.NewWriterSize(w, 1<<20)
	h := fnv.New64a()
	mw := io.MultiWriter(bw, h)

	if _, err := mw.Write([]byte(snapshotMagic)); err != nil {
		return err
	}
	version := uint32(snapshotVersion)
	if x.params.Kind.Weighted() {
		version = snapshotVersionV2
	}
	sets := x.col.Len()
	hdr := []any{
		version,
		x.g.Fingerprint(),
		uint32(x.g.NumNodes()),
		uint64(x.g.NumEdges()),
		uint32(x.params.Kind),
		x.params.Epsilon,
		x.params.Ell,
		x.params.Seed,
		uint32(x.params.BuildK),
		x.lb,
		uint64(sets),
	}
	for _, v := range hdr {
		if err := binary.Write(mw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	// The payload streams straight from the arena through one small
	// buffer: a snapshot of any size is written with no copy of its own.
	// An in-memory destination would double its way up under that stream
	// of small writes — twice the snapshot in garbage — so one that can
	// reserve (a bytes.Buffer) is told the exact size first.
	members := x.col.Members()
	if g, ok := w.(interface{ Grow(n int) }); ok {
		size := headerSize + 4*sets + 4*len(members) + 8
		if version >= snapshotVersionV2 {
			size += 8 * sets
		}
		g.Grow(size)
	}
	buf := make([]byte, ioBufSize)
	le := binary.LittleEndian
	err := writeValues(mw, buf, sets, 4, func(b []byte, i int) { le.PutUint32(b, uint32(len(x.col.Set(i)))) })
	if err == nil {
		err = writeValues(mw, buf, len(members), 4, func(b []byte, i int) { le.PutUint32(b, uint32(members[i])) })
	}
	if weights := x.col.Weights(); err == nil && version >= snapshotVersionV2 {
		err = writeValues(mw, buf, sets, 8, func(b []byte, i int) { le.PutUint64(b, math.Float64bits(weights[i])) })
	}
	if err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, h.Sum64()); err != nil {
		return err
	}
	return bw.Flush()
}

// ioBufSize is the buffer payload values are encoded and decoded through.
const ioBufSize = 1 << 16

// writeValues writes n little-endian values of size bytes each, put
// encoding the i-th, one buffer-full at a time.
func writeValues(w io.Writer, buf []byte, n, size int, put func(b []byte, i int)) error {
	for i := 0; i < n; {
		fill := 0
		for ; i < n && fill+size <= len(buf); i, fill = i+1, fill+size {
			put(buf[fill:], i)
		}
		if _, err := w.Write(buf[:fill]); err != nil {
			return err
		}
	}
	return nil
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
// (cmd/imsketch -info) from a plain reader, and for Load from the reader
// its checksum hashes. It validates magic and the version/kind pairing
// but neither the values against a graph nor the payload checksum.
func ReadHeader(r io.Reader) (Header, error) {
	magic := make([]byte, 4)
	if _, err := io.ReadFull(r, magic); err != nil {
		return Header{}, fmt.Errorf("sketch: snapshot header: %w", err)
	}
	if string(magic) != snapshotMagic {
		return Header{}, fmt.Errorf("sketch: bad snapshot magic %q", magic)
	}
	var (
		version, n, buildK, kind uint32
		m                        uint64
		h                        Header
	)
	for _, v := range []any{&version, &h.GraphFingerprint, &n, &m, &kind, &h.Epsilon, &h.Ell, &h.Seed, &buildK, &h.LowerBound, &h.Sets} {
		if err := binary.Read(r, binary.LittleEndian, v); err != nil {
			return Header{}, fmt.Errorf("sketch: snapshot header: %w", err)
		}
	}
	if err := versionKindConsistent(version, kind); err != nil {
		return Header{}, err
	}
	h.Version = int(version)
	h.Nodes = int32(n)
	h.Arcs = int64(m)
	h.Kind = ris.ModelKind(kind)
	h.BuildK = int(buildK)
	return h, nil
}

// hashedReader tees everything read into the checksum hash.
type hashedReader struct {
	r io.Reader
	h hash.Hash64
}

func (hr *hashedReader) Read(p []byte) (int, error) {
	n, err := hr.r.Read(p)
	if n > 0 {
		hr.h.Write(p[:n])
	}
	return n, err
}

// readValues reads count little-endian values of size bytes each, get
// decoding one, into a slice that starts with head zero elements. The
// destination's capacity doubles as values arrive and never passes what
// the header claimed: allocation stays within twice the bytes actually
// present in the stream, so a header lying about its counts fails at the
// first missing byte instead of driving an enormous up-front make, while
// an honest one ends in a slice of exactly its final size. (Same defense
// as graph.ReadBinary's payload reads.)
func readValues[T any](r io.Reader, buf []byte, count uint64, head, size int, get func(b []byte) T, what string) ([]T, error) {
	const firstChunk = 1 << 20
	out := make([]T, head, uint64(head)+min(count, firstChunk))
	for read := uint64(0); read < count; {
		if len(out) == cap(out) {
			grown := make([]T, len(out), uint64(head)+min(count, 2*read))
			copy(grown, out)
			out = grown
		}
		n := min(cap(out)-len(out), len(buf)/size)
		if _, err := io.ReadFull(r, buf[:n*size]); err != nil {
			return nil, fmt.Errorf("sketch: snapshot %s: %w", what, err)
		}
		for i := 0; i < n; i++ {
			out = append(out, get(buf[i*size:]))
		}
		read += uint64(n)
	}
	return out, nil
}

// Load reads a snapshot written by Save and binds it to g, which must be
// the very graph the sketch was built on: the stored content fingerprint
// and dimensions are verified before any set is accepted. The returned
// index extends with GOMAXPROCS workers; retune with SetWorkers.
func Load(r io.Reader, g *graph.Graph) (*Index, error) {
	if g == nil {
		return nil, fmt.Errorf("sketch: nil graph")
	}
	br := bufio.NewReaderSize(r, 1<<20)
	hr := &hashedReader{r: br, h: fnv.New64a()}

	h, err := ReadHeader(hr)
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
	buf := make([]byte, ioBufSize)
	le := binary.LittleEndian
	off, err := readValues(hr, buf, numSets, 1, 4, le.Uint32, "set lengths")
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
	ids, err := readValues(hr, buf, total, 0, 4, func(b []byte) graph.NodeID { return graph.NodeID(le.Uint32(b)) }, "set payload")
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
		setWeights, err = readValues(hr, buf, numSets, 0, 8, func(b []byte) float64 { return math.Float64frombits(le.Uint64(b)) }, "set weights")
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
	sum := hr.h.Sum64()
	var stored uint64
	if err := binary.Read(br, binary.LittleEndian, &stored); err != nil {
		return nil, fmt.Errorf("sketch: snapshot checksum: %w", err)
	}
	if stored != sum {
		return nil, fmt.Errorf("sketch: checksum mismatch (stored %016x, computed %016x)", stored, sum)
	}

	x := &Index{
		g:      g,
		params: p,
		col:    ris.NewCollection(g, p.Kind),
		lb:     h.LowerBound,
	}
	x.col.Install(ids, off, setWeights)
	return x, nil
}
