package diffusion

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"

	"github.com/holisticim/holisticim/internal/graph"
	"github.com/holisticim/holisticim/internal/opinion"
	"github.com/holisticim/holisticim/internal/rng"
)

const pinnedStreamsPath = "testdata/parent_streams.txt"

// pinnedStreamRows runs every model over {BA uniform p, R-MAT WC, small BA}
// with and without a blocked mask: 50 split-seed runs on one reused Scratch
// from the five top-degree nodes plus a duplicate. A row hashes, per run,
// Result.Activated, the bits of the three opinion sums, the activation order
// with each node's final-opinion bits, and the RNG's next draw — so a coin
// drawn in another order, one draw more or fewer, or an opinion off by one
// ulp changes the row.
func pinnedStreamRows() []string {
	dress := func(g *graph.Graph, seed uint64) *graph.Graph {
		g.SetDefaultLTWeights()
		opinion.AssignInteractions(g, seed)
		opinion.AssignOpinions(g, opinion.Normal, seed+1)
		return g
	}
	ba := graph.BarabasiAlbert(2000, 3, rng.New(31))
	ba.SetUniformProb(0.1)
	rmat := graph.RMAT(4096, 32000, graph.DefaultRMAT, false, rng.New(32))
	rmat.SetWeightedCascadeProb()
	small := graph.BarabasiAlbert(60, 2, rng.New(33))
	small.SetUniformProb(0.3)
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"ba-p10", dress(ba, 41)},
		{"rmat-wc", dress(rmat, 43)},
		{"small-ba", dress(small, 45)},
	}
	var rows []string
	for _, in := range graphs {
		g, n := in.g, in.g.NumNodes()
		seeds := graph.TopKByOutDegree(g, 5)
		seeds = append(seeds, seeds[2])
		// The mask blocks a quarter of the nodes and one of the seeds.
		mask := make([]bool, n)
		for v := range mask {
			mask[v] = v%4 == 1
		}
		mask[seeds[1]] = true
		models := []Model{
			NewIC(g), NewLT(g), NewOI(g, LayerIC), NewOI(g, LayerLT), NewOC(g), NewICN(g, 0.7),
		}
		for _, m := range models {
			for _, blocked := range [][]bool{nil, mask} {
				s := NewScratch(n)
				s.SetBlocked(blocked)
				h := fnv.New64a()
				var b [8]byte
				put := func(x uint64) {
					binary.LittleEndian.PutUint64(b[:], x)
					h.Write(b[:])
				}
				r := rng.New(0)
				total := 0
				for run := 0; run < 50; run++ {
					r.Reseed(rng.SplitSeed(77, uint64(run)))
					res := m.Simulate(seeds, r, s)
					total += res.Activated
					put(uint64(res.Activated))
					put(math.Float64bits(res.OpinionSum))
					put(math.Float64bits(res.PositiveSum))
					put(math.Float64bits(res.NegativeSum))
					for _, v := range s.Activated() {
						put(uint64(v))
						put(math.Float64bits(s.FinalOpinion(v)))
					}
					put(r.Uint64())
				}
				tag := "open"
				if blocked != nil {
					tag = "masked"
				}
				rows = append(rows, fmt.Sprintf("%s/%s/%s\t%016x activated=%d",
					in.name, m.Name(), tag, h.Sum64(), total))
			}
		}
	}
	return rows
}

// TestStreamsPinnedFromParent holds all six models to the RNG stream and the
// results they had at the commit before the five model types became one
// engine (testdata/parent_streams.txt, written there with
// PRINT_PINNED_STREAMS=1 before any code changed). Equality is exact: the
// EaSyIM/OSIM probes and every Monte-Carlo estimate in the tree read these
// streams.
func TestStreamsPinnedFromParent(t *testing.T) {
	rows := pinnedStreamRows()
	if os.Getenv("PRINT_PINNED_STREAMS") != "" {
		if err := os.WriteFile(pinnedStreamsPath, []byte(strings.Join(rows, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(pinnedStreamsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		name, val, _ := strings.Cut(sc.Text(), "\t")
		want[name] = val
	}
	if len(rows) != len(want) {
		t.Fatalf("%d rows, %d pinned", len(rows), len(want))
	}
	for _, row := range rows {
		name, val, _ := strings.Cut(row, "\t")
		if val != want[name] {
			t.Errorf("%s: got %q, parent had %q", name, val, want[name])
		}
	}
}
