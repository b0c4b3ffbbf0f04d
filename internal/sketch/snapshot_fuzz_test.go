package sketch

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"os"
	"runtime"
	"testing"

	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/opinion"
)

// addSnapshotCorpus seeds f with the golden snapshots, truncations of
// them around every layout boundary, and single-bit flips: every bit of
// the header, and one bit in each of a spread of payload and checksum
// bytes.
func addSnapshotCorpus(f *testing.F) {
	f.Helper()
	for _, file := range []string{"testdata/ic_v1.hims", "testdata/oc_v2.hims"} {
		golden, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(golden)
		for _, cut := range []int{0, 3, 4, 7, headerSize - 1, headerSize, headerSize + 2, len(golden) / 2, len(golden) - 8, len(golden) - 1} {
			f.Add(golden[:cut])
		}
		flip := func(bit int) {
			mutant := bytes.Clone(golden)
			mutant[bit/8] ^= 1 << (bit % 8)
			f.Add(mutant)
		}
		for bit := 0; bit < 8*headerSize; bit++ {
			flip(bit)
		}
		for at := headerSize; at < len(golden); at += 997 {
			flip(8*at + at%8)
		}
		flip(8*len(golden) - 1)
	}
}

// ReadHeader never panics, whatever the bytes.
func FuzzReadHeader(f *testing.F) {
	addSnapshotCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := ReadHeader(bytes.NewReader(data))
		if err == nil && len(data) < headerSize {
			t.Fatalf("accepted a %d-byte header: %+v", len(data), h)
		}
	})
}

// resealed returns data with its last 8 bytes replaced by the checksum of
// what precedes them, so that a mutation is judged by every check behind
// the checksum instead of dying at it.
func resealed(data []byte) []byte {
	if len(data) < 8 {
		return data
	}
	body := len(data) - 8
	h := fnv.New64a()
	h.Write(data[:body])
	return binary.LittleEndian.AppendUint64(bytes.Clone(data[:body]), h.Sum64())
}

// countOf returns how many times v occurs in set.
func countOf(set []graph.NodeID, v graph.NodeID) int {
	times := 0
	for _, u := range set {
		if u == v {
			times++
		}
	}
	return times
}

// Load never panics; never allocates beyond a constant plus a multiple of
// the bytes it was given, however large the counts the header claims
// (readValues grows its arrays only as values actually arrive, from a
// first chunk of at most 2^20 elements each); whatever it accepts
// re-saves to the very bytes it consumed; and the index it accepts is
// sound: every inverted-index row strictly ascending, and the set of every
// (node, set) entry holding that node exactly once. Every input is tried
// as it is and with a valid checksum, against both golden graphs.
func FuzzLoad(f *testing.F) {
	addSnapshotCorpus(f)
	graphs := []*graph.Graph{testGraph(f, 200), ocTestGraph(f, 200, opinion.Normal)}
	for _, g := range graphs {
		g.Fingerprint() // hashed once, outside the measured loads
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, resealed(data)} {
			for _, g := range graphs {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				x, err := Load(bytes.NewReader(in), g)
				runtime.ReadMemStats(&after)
				// One 64 KB buffer and three first chunks (4+4+8 MB) at most,
				// then arrays that double within what is present and an
				// index as large as the arena.
				if spent, limit := after.TotalAlloc-before.TotalAlloc, uint64(24<<20+16*len(in)); spent > limit {
					t.Fatalf("Load of %d bytes allocated %d, limit %d", len(in), spent, limit)
				}
				if err != nil {
					continue
				}
				var resaved bytes.Buffer
				if err := x.Save(&resaved); err != nil {
					t.Fatal(err)
				}
				if !bytes.HasPrefix(in, resaved.Bytes()) {
					t.Fatalf("Load accepted %d bytes that re-save as %d different ones", len(in), resaved.Len())
				}
				for v := graph.NodeID(0); v < g.NumNodes(); v++ {
					row := x.col.SetsContaining(v)
					for i, sid := range row {
						if i > 0 && row[i-1] >= sid {
							t.Fatalf("node %d's index row is not strictly ascending: %v", v, row)
						}
						if times := countOf(x.col.Set(int(sid)), v); times != 1 {
							t.Fatalf("node %d's row lists set %d, which holds it %d times", v, sid, times)
						}
					}
				}
			}
		}
	})
}
