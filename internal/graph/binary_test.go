package graph

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"github.com/holisticim/holisticim/internal/rng"
)

func TestBinaryRoundTrip(t *testing.T) {
	g := ErdosRenyi(500, 3000, rng.New(3))
	g.SetUniformProb(0.125)
	r := rng.New(5)
	for v := NodeID(0); v < g.NumNodes(); v++ {
		g.SetOpinion(v, r.Range(-1, 1))
	}
	g.SetEdgeParamsFunc(func(u, v NodeID) (float64, float64) { return 0.125, r.Float64() })
	g.SetDefaultLTWeights()

	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("size changed: %d/%d", g2.NumNodes(), g2.NumEdges())
	}
	for u := NodeID(0); u < g.NumNodes(); u++ {
		a, b := g.OutNeighbors(u), g2.OutNeighbors(u)
		if len(a) != len(b) {
			t.Fatalf("node %d degree changed", u)
		}
		pa, pb := g.OutProbs(u), g2.OutProbs(u)
		fa, fb := g.OutPhis(u), g2.OutPhis(u)
		wa, wb := g.OutWeights(u), g2.OutWeights(u)
		for i := range a {
			if a[i] != b[i] || pa[i] != pb[i] || fa[i] != fb[i] || wa[i] != wb[i] {
				t.Fatalf("node %d edge %d differs", u, i)
			}
		}
		if g.Opinion(u) != g2.Opinion(u) {
			t.Fatalf("node %d opinion differs", u)
		}
		if g.InDegree(u) != g2.InDegree(u) {
			t.Fatalf("node %d in-degree differs after rebuild", u)
		}
	}
	// In-edge index integrity.
	for v := NodeID(0); v < g2.NumNodes(); v++ {
		idxs := g2.InEdgeIndices(v)
		froms := g2.InNeighbors(v)
		for i, u := range froms {
			if p, ok := g2.EdgeProb(u, v); !ok || p != g2.ProbAt(idxs[i]) {
				t.Fatalf("in-edge index broken at (%d,%d)", u, v)
			}
		}
	}
}

// Round trip through a Builder with fully custom per-edge parameters:
// probabilities, interaction probabilities, LT weights and opinions must
// all survive byte-exactly.
func TestBinaryRoundTripCustomWeights(t *testing.T) {
	r := rng.New(11)
	b := NewBuilder(100)
	for i := 0; i < 400; i++ {
		u, v := NodeID(r.Int31n(100)), NodeID(r.Int31n(100))
		if u == v {
			continue
		}
		b.AddEdgeFull(u, v, r.Float64(), r.Float64(), r.Float64())
	}
	g := b.Build()
	for v := NodeID(0); v < g.NumNodes(); v++ {
		g.SetOpinion(v, r.Range(-1, 1))
	}

	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for u := NodeID(0); u < g.NumNodes(); u++ {
		pa, pb := g.OutProbs(u), g2.OutProbs(u)
		fa, fb := g.OutPhis(u), g2.OutPhis(u)
		wa, wb := g.OutWeights(u), g2.OutWeights(u)
		for i := range pa {
			if pa[i] != pb[i] || fa[i] != fb[i] || wa[i] != wb[i] {
				t.Fatalf("node %d edge %d params differ", u, i)
			}
		}
		if g.Opinion(u) != g2.Opinion(u) {
			t.Fatalf("node %d opinion differs", u)
		}
	}
	if g.Fingerprint() != g2.Fingerprint() {
		t.Fatal("fingerprint changed across round trip")
	}
}

// Truncation anywhere in the stream must yield an error — never a panic
// or a silent partial graph.
func TestBinaryTruncationSweep(t *testing.T) {
	g := ErdosRenyi(120, 600, rng.New(2))
	g.SetUniformProb(0.25)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	offsets := make(map[int]bool)
	for cut := 0; cut < 64 && cut < len(raw); cut++ {
		offsets[cut] = true // dense sweep over the header region
	}
	r := rng.New(4)
	for i := 0; i < 200; i++ {
		offsets[r.Intn(len(raw))] = true
	}
	offsets[len(raw)-1] = true
	for cut := range offsets {
		if _, err := ReadBinary(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d bytes accepted", cut)
		}
	}
}

// A header claiming an absurd arc count must be rejected up front (and a
// merely-large lie must fail at the first missing chunk, not allocate
// the full claimed size).
func TestBinaryRejectsImplausibleCounts(t *testing.T) {
	g := Path(4, 0.5, 0.5)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Arc count lives at bytes [12,20).
	clobber := func(m uint64) []byte {
		out := append([]byte(nil), raw...)
		for i := 0; i < 8; i++ {
			out[12+i] = byte(m >> (8 * i))
		}
		return out
	}
	if _, err := ReadBinary(bytes.NewReader(clobber(1 << 60))); err == nil {
		t.Fatal("absurd arc count accepted")
	}
	if _, err := ReadBinary(bytes.NewReader(clobber(1 << 30))); err == nil {
		t.Fatal("lying arc count accepted")
	}
}

// Out-of-range edge parameters (phi, LT weight) must be rejected, not
// just probabilities and opinions.
func TestBinaryRejectsBadEdgeParams(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdgeFull(0, 1, 0.5, 0.5, 0.5)
	b.AddEdgeFull(1, 2, 0.5, 0.5, 0.5)
	g := b.Build()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Layout after the 20-byte header: outStart 4×8, outTo 2×4, then
	// outProb 2×8, outPhi 2×8, outWt 2×8.
	const probOff = 20 + 32 + 8
	writeFloat := func(pos int, f float64) []byte {
		out := append([]byte(nil), raw...)
		bits := math.Float64bits(f)
		for i := 0; i < 8; i++ {
			out[pos+i] = byte(bits >> (8 * i))
		}
		return out
	}
	cases := map[string][]byte{
		"prob > 1":     writeFloat(probOff, 1.5),
		"phi < 0":      writeFloat(probOff+16, -0.25),
		"phi NaN":      writeFloat(probOff+16, math.NaN()),
		"wt negative":  writeFloat(probOff+32, -1),
		"wt infinite":  writeFloat(probOff+32, math.Inf(1)),
		"opinion NaN":  writeFloat(len(raw)-24, math.NaN()),
		"opinion wild": writeFloat(len(raw)-8, 7),
	}
	for name, data := range cases {
		if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Unclobbered input still loads.
	if _, err := ReadBinary(bytes.NewReader(raw)); err != nil {
		t.Fatalf("pristine input rejected: %v", err)
	}
}

func TestBinaryRejectsCorruptInput(t *testing.T) {
	g := Path(4, 0.5, 0.5)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	cases := map[string][]byte{
		"bad magic":     append([]byte("XXXX"), raw[4:]...),
		"truncated":     raw[:len(raw)-9],
		"short header":  raw[:6],
		"empty":         nil,
		"corrupt probs": corruptAt(raw, len(raw)-20, 0xFF), // clobber opinion/prob floats
	}
	for name, data := range cases {
		if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	// Bad version.
	bad := append([]byte(nil), raw...)
	bad[4] = 99
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("bad version accepted: %v", err)
	}
}

// rawGraph encodes an n-node file with the given CSR rows in the binary
// layout, every arc at p = ϕ = w = 0.5 and every opinion 0, so a test can
// state rows WriteBinary would never produce.
func rawGraph(n int32, outStart []int64, outTo []NodeID) []byte {
	var buf bytes.Buffer
	buf.WriteString(binaryMagic)
	params := make([]float64, 3*len(outTo))
	for i := range params {
		params[i] = 0.5
	}
	for _, v := range []any{uint32(binaryVersion), uint32(n), uint64(len(outTo)), outStart, outTo, params, make([]float64, n)} {
		_ = binary.Write(&buf, binary.LittleEndian, v)
	}
	return buf.Bytes()
}

// badRows are out-rows Builder.Build never leaves, each in a 3-node file.
var badRows = map[string][]byte{
	"unsorted row":   rawGraph(3, []int64{0, 2, 3, 3}, []NodeID{2, 1, 2}),
	"duplicate arc":  rawGraph(3, []int64{0, 2, 3, 3}, []NodeID{1, 1, 2}),
	"self-loop":      rawGraph(3, []int64{0, 2, 3, 3}, []NodeID{1, 2, 1}),
	"row 0 is 2 1 0": rawGraph(3, []int64{0, 3, 3, 3}, []NodeID{2, 1, 0}),
}

// Out-rows must be strictly ascending with no self-loop: HasEdge
// binary-searches them, so a row out of order would hide arcs the graph
// holds and let an edge batch add a duplicate.
func TestBinaryRejectsMalformedRows(t *testing.T) {
	for name, data := range badRows {
		if g, err := ReadBinary(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted, rows %v", name, g.outTo)
		}
	}
	g, err := ReadBinary(bytes.NewReader(rawGraph(3, []int64{0, 2, 3, 3}, []NodeID{1, 2, 2})))
	if err != nil {
		t.Fatalf("well-formed rows rejected: %v", err)
	}
	for _, arc := range [][2]NodeID{{0, 1}, {0, 2}, {1, 2}} {
		if !g.HasEdge(arc[0], arc[1]) {
			t.Errorf("HasEdge%v = false on a loaded arc", arc)
		}
	}
}

// ReadBinary never panics; whatever it accepts, WriteBinary writes back as
// exactly the bytes it consumed; and every stored arc is found by HasEdge.
func FuzzReadBinary(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, BarabasiAlbert(40, 2, rng.New(1))); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	for _, cut := range []int{0, 3, 4, 19, 20, 21, len(good) / 2, len(good) - 8, len(good) - 1} {
		f.Add(good[:cut])
	}
	for _, data := range badRows {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteBinary(&out, g); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, out.Bytes()) {
			t.Fatalf("accepted %d bytes that write back as %d different ones", len(data), out.Len())
		}
		for u := NodeID(0); u < g.NumNodes(); u++ {
			for _, v := range g.OutNeighbors(u) {
				if !g.HasEdge(u, v) {
					t.Fatalf("stored arc (%d,%d) not found by HasEdge", u, v)
				}
			}
		}
	})
}

func corruptAt(raw []byte, pos int, val byte) []byte {
	out := append([]byte(nil), raw...)
	for i := 0; i < 8 && pos+i < len(out); i++ {
		out[pos+i] = val
	}
	return out
}

func TestBinaryEmptyGraph(t *testing.T) {
	g := NewBuilder(3).Build()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != 3 || g2.NumEdges() != 0 {
		t.Fatalf("empty graph round trip: %d/%d", g2.NumNodes(), g2.NumEdges())
	}
}

func BenchmarkBinaryWrite(b *testing.B) {
	g := BarabasiAlbert(20000, 3, rng.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		_ = WriteBinary(&buf, g)
	}
}

func BenchmarkBinaryRead(b *testing.B) {
	g := BarabasiAlbert(20000, 3, rng.New(1))
	var buf bytes.Buffer
	_ = WriteBinary(&buf, g)
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = ReadBinary(bytes.NewReader(data))
	}
}
